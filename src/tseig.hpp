// Umbrella header for the tseig library: two-stage symmetric eigensolver
// with eigenvectors (reproduction of Haidar, Luszczek & Dongarra, IPDPS'14,
// "New Algorithm for Computing Eigenvectors of the Symmetric Eigenvalue
// Problem").
//
// Quick start:
//
//   #include "tseig.hpp"
//   tseig::Matrix a = ...;               // symmetric, lower triangle used
//   tseig::solver::SyevOptions opts;     // two-stage + D&C by default
//   auto res = tseig::solver::syev(n, a.data(), a.ld(), opts);
//   // res.eigenvalues (ascending), res.z (orthonormal eigenvector columns)
#pragma once

#include "blas/blas1.hpp"
#include "blas/blas2.hpp"
#include "blas/blas3.hpp"
#include "common/flops.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "lapack/aux.hpp"
#include "lapack/generators.hpp"
#include "lapack/potrf.hpp"
#include "lapack/steqr.hpp"
#include "onestage/sytrd.hpp"
#include "runtime/thread_pool.hpp"
#include "solver/syev.hpp"
#include "solver/syev_batch.hpp"
#include "solver/sygv.hpp"
#include "tridiag/bisect.hpp"
#include "tridiag/stedc.hpp"
#include "twostage/q2_apply.hpp"
#include "twostage/sb2st.hpp"
#include "twostage/sy2sb.hpp"
