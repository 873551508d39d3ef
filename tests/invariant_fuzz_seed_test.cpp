// Randomized seed-sweep property test: hundreds of executions across every
// protocol kind and every scheduler, each judged by the shared invariant
// oracle (invariant_oracle.hpp) — the plain-ctest face of the fuzzing
// subsystem, so builds without any fuzzer toolchain still sweep a broad
// random slice of the scenario space on every run.
//
// Per (protocol, scheduler) cell the sweep draws `kSeedsPerCell` seeds; each
// seed derives the inputs, the crash plan (send budgets and multicast
// orders) or the byzantine strategy, deterministically via the repo Rng, so
// any failure reproduces from its gtest name alone.  Round budgets come from
// the reconstructed theory (core/bounds.hpp) plus margin, making
// eps-agreement a hard expectation everywhere a budget formula exists.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "common/rng.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"
#include "invariant_oracle.hpp"

namespace apxa {
namespace {

using harness::ProtocolKind;
using harness::SchedKind;

constexpr SchedKind kScheds[] = {SchedKind::kRandom, SchedKind::kFifo,
                                 SchedKind::kGreedySplit, SchedKind::kTargeted,
                                 SchedKind::kClique};
constexpr std::uint64_t kSeedsPerCell = 8;
constexpr double kEpsilon = 1e-2;

// 7 protocol kinds x 5 schedulers x 8 seeds = 280 oracle-checked runs.

adversary::ByzSpec byz_for_seed(Rng& rng, ProcessId who, double lo, double hi) {
  constexpr adversary::ByzKind kKinds[] = {
      adversary::ByzKind::kSilent,      adversary::ByzKind::kExtremeLow,
      adversary::ByzKind::kExtremeHigh, adversary::ByzKind::kEquivocate,
      adversary::ByzKind::kSpoiler,     adversary::ByzKind::kNoise,
      adversary::ByzKind::kHullEscape};
  adversary::ByzSpec b;
  b.who = who;
  b.kind = kKinds[rng.next_int(0, 6)];
  b.lo = lo - rng.next_double(0.0, 50.0);
  b.hi = hi + rng.next_double(0.0, 50.0);
  b.amplify = rng.next_double(1.0, 6.0);
  b.seed = rng.next_int(1, 1 << 20);
  return b;
}

class ScalarSweep
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, SchedKind>> {};

TEST_P(ScalarSweep, OracleHoldsAcrossSeeds) {
  const auto [protocol, sched] = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(protocol) * 131 +
            static_cast<std::uint64_t>(sched));

    harness::RunConfig cfg;
    cfg.protocol = protocol;
    cfg.sched = sched;
    cfg.seed = seed;
    cfg.epsilon = kEpsilon;
    switch (protocol) {
      case ProtocolKind::kCrashRound:
        cfg.params = {5, 2};
        break;
      case ProtocolKind::kByzRound:
        cfg.params = {6 + static_cast<std::uint32_t>(seed % 2), 1};
        break;
      default:  // kWitness
        cfg.params = {4 + static_cast<std::uint32_t>(seed % 2), 1};
        break;
    }
    cfg.inputs = harness::random_inputs(rng, cfg.params.n, -50.0, 50.0);
    const auto [lo_it, hi_it] =
        std::minmax_element(cfg.inputs.begin(), cfg.inputs.end());
    const double spread = *hi_it - *lo_it;

    if (protocol == ProtocolKind::kCrashRound) {
      cfg.averager = seed % 2 ? core::Averager::kMean : core::Averager::kMidpoint;
      const auto count = static_cast<std::uint32_t>(rng.next_int(0, 2));
      cfg.crashes = adversary::random_crashes(rng, cfg.params, count, 3);
      const double k =
          core::predicted_factor(cfg.averager, cfg.params.n, cfg.params.t);
      cfg.fixed_rounds = core::rounds_needed(spread, kEpsilon, k) + 2;
    } else if (protocol == ProtocolKind::kByzRound) {
      if (seed % 3 != 0) {
        cfg.byz.push_back(byz_for_seed(
            rng, static_cast<ProcessId>(rng.next_int(0, cfg.params.n - 1)),
            *lo_it, *hi_it));
      }
      const double mag = std::max(std::abs(*lo_it), std::abs(*hi_it));
      cfg.fixed_rounds =
          core::rounds_for_bound(mag, kEpsilon, core::Averager::kDlpswAsync,
                                 cfg.params) +
          2;
    } else {
      if (seed % 3 != 0) {
        cfg.byz.push_back(byz_for_seed(
            rng, static_cast<ProcessId>(rng.next_int(0, cfg.params.n - 1)),
            *lo_it, *hi_it));
      }
      cfg.fixed_rounds = core::rounds_needed(spread, kEpsilon, 2.0) + 2;
    }

    const harness::RunReport rep = harness::run(cfg);
    const auto v = oracle::check_run(cfg, rep);
    EXPECT_TRUE(v.ok) << v.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ScalarSweep,
    ::testing::Combine(::testing::Values(ProtocolKind::kCrashRound,
                                         ProtocolKind::kByzRound,
                                         ProtocolKind::kWitness),
                       ::testing::ValuesIn(kScheds)));

class VectorSweep
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, SchedKind>> {};

TEST_P(VectorSweep, OracleHoldsAcrossSeeds) {
  const auto [protocol, sched] = GetParam();
  const bool convex = protocol == ProtocolKind::kVectorConvex ||
                      protocol == ProtocolKind::kVectorConvexRB;
  for (std::uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 6151 + static_cast<std::uint64_t>(protocol) * 131 +
            static_cast<std::uint64_t>(sched));

    harness::VectorRunConfig cfg;
    cfg.protocol = protocol;
    cfg.sched = sched;
    cfg.seed = seed;
    cfg.epsilon = kEpsilon;
    cfg.dim = 1 + static_cast<std::uint32_t>(seed % 3);
    switch (protocol) {
      case ProtocolKind::kVectorCrash:
        cfg.params = {5, 2};
        break;
      case ProtocolKind::kVectorByz:
        cfg.params = {6 + static_cast<std::uint32_t>(seed % 2), 1};
        break;
      default:  // convex kinds, n > 3t
        cfg.params = {4 + static_cast<std::uint32_t>(seed % 2), 1};
        break;
    }
    cfg.inputs =
        harness::random_vector_inputs(rng, cfg.params.n, cfg.dim, -50.0, 50.0);
    double lo = 1e9, hi = -1e9;
    for (const auto& row : cfg.inputs) {
      for (double x : row) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }

    oracle::Expect expect;
    if (protocol == ProtocolKind::kVectorCrash) {
      const auto count = static_cast<std::uint32_t>(rng.next_int(0, 2));
      cfg.crashes = adversary::random_crashes(rng, cfg.params, count, 3);
      const double k = core::predicted_factor(core::Averager::kMean,
                                              cfg.params.n, cfg.params.t);
      cfg.fixed_rounds = core::rounds_needed(hi - lo, kEpsilon, k) + 2;
    } else if (protocol == ProtocolKind::kVectorByz) {
      if (seed % 3 != 0) {
        cfg.byz.push_back(byz_for_seed(
            rng, static_cast<ProcessId>(rng.next_int(0, cfg.params.n - 1)),
            lo, hi));
      }
      cfg.fixed_rounds =
          core::rounds_for_bound(std::max(std::abs(lo), std::abs(hi)), kEpsilon,
                                 core::Averager::kDlpswAsync, cfg.params) +
          2;
    } else {
      // Safe-area protocols: no reconstructed budget formula — hold them to
      // liveness, convex validity and (for RB collect) view overlap.
      if (seed % 3 != 0) {
        cfg.byz.push_back(byz_for_seed(
            rng, static_cast<ProcessId>(rng.next_int(0, cfg.params.n - 1)),
            lo, hi));
      }
      cfg.fixed_rounds = 2 + static_cast<Round>(seed % 3);
      expect.require_agreement = false;
    }

    const harness::VectorRunReport rep = harness::run(cfg);
    const auto v = oracle::check_run(cfg, rep, expect);
    EXPECT_TRUE(v.ok) << v.summary();
    if (convex) {
      EXPECT_TRUE(rep.convex_validity_ok);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, VectorSweep,
    ::testing::Combine(::testing::Values(ProtocolKind::kVectorCrash,
                                         ProtocolKind::kVectorByz,
                                         ProtocolKind::kVectorConvex,
                                         ProtocolKind::kVectorConvexRB),
                       ::testing::ValuesIn(kScheds)));

}  // namespace
}  // namespace apxa
