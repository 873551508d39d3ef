// Theoretical convergence-rate predictors.
//
// These formulas are the reconstructed theorem statements the benchmark
// harness compares measurements against.  The PODC'87 text was unavailable,
// so each constant is taken from the standard literature and *validated
// empirically*: bench/t1 and bench/f2 print measured vs predicted for every
// entry (README.md, "Benchmarks", says how to run them).
//
// Summary of the landscape the 1987 paper establishes:
//   - asynchronous, crash faults, mean rule: per-round convergence factor
//     K = (n - t) / t.  Views of size n - t intersect in >= n - 2t elements,
//     so means differ by at most t/(n-t) of the spread; the chain-style lower
//     bound shows no rule can do asymptotically better than Theta(n/t).
//   - midpoint ("halving") rules: K = 2 regardless of n/t — Fekete's point is
//     precisely that mean-style rules beat halving by Theta(n/t).
//   - synchronous crash: K ~ n/t per round (Fekete PODC'86).
//   - byzantine rules pay for laundering: DLPSW sync (t < n/3) and async
//     (t < n/5) converge at a rate that is ~2 near the resilience boundary
//     and grows with n/t.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "core/multiset_ops.hpp"

namespace apxa::core {

/// Guaranteed per-round factor of the mean rule in the asynchronous crash
/// model: K = (n - t) / t.  Requires n > 2t.
double predicted_factor_crash_async_mean(std::uint32_t n, std::uint32_t t);

/// Halving rules converge by (at most a small constant more than) 2.
double predicted_factor_midpoint();

/// Synchronous crash model, mean rule, adversary spending f crashes in one
/// round: factor (n - f) / f; with all t crashes in one round this is the
/// per-round worst case.  Requires n > 2t.
double predicted_factor_crash_sync_mean(std::uint32_t n, std::uint32_t t);

/// DLPSW synchronous byzantine rule mean∘select_t∘reduce_t (t < n/3).
/// Literature-derived approximation floor((n - 3t) / (2t)) + 2, >= 2; the
/// harness treats the measured value as ground truth.
double predicted_factor_dlpsw_sync(std::uint32_t n, std::uint32_t t);

/// DLPSW asynchronous byzantine rule mean∘select_2t∘reduce_t (t < n/5):
/// the number of selected survivors, floor((n - 3t - 1) / (2t)) + 1, >= 2.
double predicted_factor_dlpsw_async(std::uint32_t n, std::uint32_t t);

/// AAD'04 witness-technique iteration (t < n/3): factor 2 per iteration.
double predicted_factor_witness();

/// Predictor for a given averager in a given model (async crash vs async
/// byzantine), used by round-budget computations.
double predicted_factor(Averager a, std::uint32_t n, std::uint32_t t);

/// Rounds needed to shrink a spread of S to <= eps at factor K:
/// ceil(log_K(S / eps)); 0 when S <= eps.  K must exceed 1.
Round rounds_needed(double S, double eps, double K);

/// Resilience checks, named after the model they guard.
bool resilience_crash_async(std::uint32_t n, std::uint32_t t);  // n > 2t
bool resilience_byz_sync(std::uint32_t n, std::uint32_t t);     // n > 3t
bool resilience_byz_async(std::uint32_t n, std::uint32_t t);    // n > 5t
bool resilience_witness(std::uint32_t n, std::uint32_t t);      // n > 3t

}  // namespace apxa::core
