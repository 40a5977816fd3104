#!/usr/bin/env python3
"""Builds syevbench from source and runs the repository benchmark.

Run from the repository root:

  python3 syevbench/run.py --workload evd_full --seed 7 --seconds 10 --trace 0
  python3 syevbench/run.py                 # every workload, end-to-end pass
  python3 syevbench/run.py --trace 1       # every workload, per-layer pass
  python3 syevbench/run.py --runs 5        # 5 runs each, median and quartiles
  python3 syevbench/run.py --smoke         # small sizes, checks the output

With --workload the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The build goes to
$CARGO_TARGET_DIR (default .bench_build).  See syevbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["evd_full", "evd_values", "evr_subset", "batch_mixed"]
DEFAULT_SEED = 20261016
# Cold first calls timed per end-to-end run (this process plus fresh ones);
# setup_s is their median.
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", "syevbench", "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "syevbench", "-j4"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return build_dir


def bench_env():
    # End-to-end runs use the library defaults, untraced: drop every TSEIG_*
    # override (KERNEL, LOOKAHEAD, NUM_THREADS, TRACE, METRICS, HWC, ...).
    return {k: v for k, v in os.environ.items() if not k.startswith("TSEIG_")}


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             capture_output=True, text=True, env=env, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(exe, args, deadline):
    """Runs syevbench; returns (exit code, human lines, parsed last-line JSON)."""
    out = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True,
                         env=bench_env(), timeout=max(1.0, deadline - time.time()))
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, lines[:-1] if result else lines, result


def run_workload(exe, workload, seed, seconds, trace, workers, smoke):
    """One benchmark run; returns (exit code, result dict or None)."""
    deadline = time.time() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed),
              "--workers", str(workers)] + (["--smoke"] if smoke else [])
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, _, res = run_binary(exe, common + ["--setup-only"], deadline)
            if code or not res:
                return code or 1, None
            setup.append(res["metrics"]["setup_s"]["value"])
    code, lines, res = run_binary(
        exe, common + ["--seconds", str(seconds), "--trace", "1" if trace else "0"],
        deadline)
    print(f"git {git_describe()}")
    for line in lines:
        print(line)
    if res is None:
        return code or 1, None
    if not trace:
        setup.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setup)
        print(f"setup_s samples {setup} (median of {len(setup)} cold first calls)")
    return code, res


def summarize(values_by_key):
    for (workload, name), values in values_by_key.items():
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{workload:12s} {name:30s} median {med:.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  iqr/median {spread:.4f}  n={len(values)}")


def smoke_check(results, trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    ok = True
    for workload, res in results.items():
        missing = [n for n in names if n not in res["metrics"]]
        extra = [n for n in res["metrics"] if n not in names]
        if missing or extra or res["failed"] or not res["correct"]:
            print(f"SMOKE FAIL {workload}: missing {missing} extra {extra} "
                  f"failed {res['failed']}")
            ok = False
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--smoke", action="store_true",
                   help="n=192 and a 16-problem batch, both passes, "
                        "checks every BENCHMARK.json metric is printed")
    args = p.parse_args()

    exe = os.path.join(build(), "syevbench")
    workers = min(4, len(os.sched_getaffinity(0)))

    if args.workload and args.runs == 1 and not args.smoke:
        code, res = run_workload(exe, args.workload, args.seed, args.seconds,
                                 args.trace == 1, workers, False)
        if res is None:
            fail(f"{args.workload}: no result (exit code {code})")
        text = json.dumps(res)
        with open(os.path.join(os.path.dirname(exe),
                               f"result-{args.workload}.json"), "w") as f:
            f.write(text + "\n")
        print(text)
        sys.exit(code)

    workloads = [args.workload] if args.workload else WORKLOADS
    passes = [False, True] if args.smoke else [args.trace == 1]
    seconds = 0.2 if args.smoke else args.seconds
    ok = True
    for trace in passes:
        values, last = {}, {}
        for workload in workloads:
            for r in range(args.runs):
                print(f"== {workload} run {r + 1}/{args.runs} trace {int(trace)}")
                code, res = run_workload(exe, workload, args.seed + r, seconds,
                                         trace, workers, args.smoke)
                if res is None or code:
                    ok = False
                if res is None:
                    continue
                last[workload] = res
                for name, m in res["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
        print(f"== summary, trace {int(trace)}")
        summarize(values)
        if args.smoke:
            ok = smoke_check(last, trace) and len(last) == len(workloads) and ok
    print("OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
