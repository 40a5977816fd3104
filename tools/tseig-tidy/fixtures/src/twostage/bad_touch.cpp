// Fixture: tseig-task-touch-discipline.  The first lambda calls a tile
// kernel without declaring its footprint -- finding.  The second declares
// touches before the call -- clean, even though it reaches submit() through
// a run() helper exactly like src/twostage/sy2sb.cpp does.  A pipeline body
// calling the chase kernels without touches is clean too: the bulge chase
// (src/twostage/sb2st.cpp) runs no tasks, so there is nothing to declare.
struct Tile {};

void geqrt(Tile&, Tile&);
void tsmqr_corner(Tile&, Tile&, Tile&);
void hbceu(Tile&);
void hbrel_hblru(Tile&);
void touch_read(const Tile&);
void touch_write(Tile&);

template <class F>
void run(F&& body) {
  body();
}

void bad_task(Tile& a, Tile& t) {
  run([&] {
    geqrt(a, t);  // finding: no touch_read/touch_write in this lambda
  });
}

void good_task(Tile& a, Tile& t) {
  run([&] {
    touch_write(a);
    touch_write(t);
    geqrt(a, t);
  });
}

void good_corner(Tile& a, Tile& b, Tile& c) {
  run([&] {
    touch_read(a);
    touch_write(b);
    touch_write(c);
    tsmqr_corner(a, b, c);
  });
}

void chase_pipeline_body(Tile& band) {
  run([&] {
    hbceu(band);  // not a tile kernel: no finding
    hbrel_hblru(band);
  });
}

void not_a_lambda(Tile& a, Tile& t) {
  // Kernel call at function scope (a defining-TU shape): the check only
  // audits lambda bodies, so no finding here.
  geqrt(a, t);
}
