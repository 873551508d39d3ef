// Convex-validity vector AA across backends: the SAME VectorRunConfig with
// ProtocolKind::kVectorConvex must report convex-hull validity (the
// guarantee safe-area averaging targets, geom/safe_area.hpp) on the
// deterministic simulator, the threaded runtime, and the socket runtime
// (clean and under injected datagram loss), under crash faults and under
// the hull-escape attacker that provably breaks the box-valid kVectorByz
// laundering.  Runs in the TSan lane (threaded rows).
#include <gtest/gtest.h>

#include <chrono>
#include <utility>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "backend_matrix.hpp"
#include "harness/harness.hpp"
#include "harness/run_many.hpp"
#include "invariant_oracle.hpp"

namespace apxa::harness {
namespace {

using namespace std::chrono_literals;

VectorRunConfig convex_base(SystemParams p, std::uint32_t dim, Round rounds,
                            std::uint64_t seed) {
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorConvex;
  cfg.dim = dim;
  cfg.fixed_rounds = rounds;
  cfg.epsilon = 1e-2;
  Rng rng(seed);
  cfg.inputs = random_vector_inputs(rng, p.n, dim, -5.0, 5.0);
  return cfg;
}

void add_hull_escape(VectorRunConfig& cfg, std::uint32_t count) {
  for (std::uint32_t b = 0; b < count; ++b) {
    adversary::ByzSpec s;
    s.who = b;
    s.kind = adversary::ByzKind::kHullEscape;
    s.lo = -5.0;
    s.hi = 5.0;
    s.seed = b + 1;
    cfg.byz.push_back(s);
  }
}

class ConvexParity : public ::testing::TestWithParam<BackendCase> {
 protected:
  VectorRunReport run_on_backend(VectorRunConfig cfg) {
    apply_backend_case(cfg, GetParam());
    cfg.thread_timeout = 60s;
    const auto rep = run(cfg);
    // Shared invariant oracle (same code the fuzzer and the seed-sweep
    // property test call); eps-agreement stays a per-case expectation.
    oracle::Expect expect;
    expect.require_agreement = false;
    const auto v = oracle::check_run(cfg, rep, expect);
    EXPECT_TRUE(v.ok) << v.summary();
    return rep;
  }
};

TEST_P(ConvexParity, FaultFreeConvergesInsideHull) {
  const SystemParams p{7, 1};
  const auto rep = run_on_backend(convex_base(p, 2, 12, 31));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
  EXPECT_EQ(rep.outputs_outside_hull, 0u);
  // Fault-free views have slack (m = 6 > d + 1) and contract.
  ASSERT_GE(rep.linf_spread_by_round.size(), 2u);
  EXPECT_LT(rep.linf_spread_by_round.back(),
            0.5 * rep.linf_spread_by_round.front());
}

TEST_P(ConvexParity, HullEscapeAttackerStaysConvexValid) {
  const SystemParams p{10, 2};
  auto cfg = convex_base(p, 2, 10, 47);
  add_hull_escape(cfg, p.t);
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - p.t);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok) << rep.outputs_outside_hull
                                      << " outputs escaped the honest hull";
}

TEST_P(ConvexParity, HullEscapeInDegenerateDimension) {
  // d = 8 with n = 11: views of 9 points in R^8 are degenerate simplices,
  // the regime where the rule degrades to certified-honest averaging; the
  // verdict must still be convex-valid on both backends.
  const SystemParams p{11, 2};
  auto cfg = convex_base(p, 8, 10, 53);
  add_hull_escape(cfg, p.t);
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok) << rep.outputs_outside_hull
                                      << " outputs escaped the honest hull";
}

TEST_P(ConvexParity, CrashFaultsStayConvexValid) {
  const SystemParams p{8, 2};
  auto cfg = convex_base(p, 3, 10, 61);
  cfg.crashes = {adversary::partial_multicast_crash(p, 7, /*full_rounds=*/1,
                                                    {0, 1, 2})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
}

TEST_P(ConvexParity, MixedCrashAndHullEscape) {
  // Full fault budget split across fault kinds: one attacker, one crash.
  const SystemParams p{9, 2};
  auto cfg = convex_base(p, 2, 10, 67);
  add_hull_escape(cfg, 1);
  cfg.crashes = {adversary::partial_multicast_crash(p, 8, 1, {1, 2})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 2);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
}

TEST_P(ConvexParity, ZeroRoundsOutputsInputs) {
  const auto rep = run_on_backend(convex_base({7, 1}, 2, 0, 71));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), 7u);
  EXPECT_EQ(rep.metrics.messages_sent, 0u);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.convex_validity_ok);
}

INSTANTIATE_TEST_SUITE_P(Backends, ConvexParity,
                         ::testing::ValuesIn(kBackendMatrix),
                         backend_case_name);

// --- simulator-only properties ---------------------------------------------

// The box-vs-convex contrast the subsystem exists for, pinned to one
// deterministic scenario (the f6 exemplar, n = 11, t = 2, d = 8): the SAME
// inputs and the SAME hull-escape attackers drive coordinate-wise laundering
// out of the honest convex hull while safe-area averaging stays inside.
// Mirrors the acceptance gate on bench/f6_multidim's box_vs_convex section.
TEST(ConvexSim, HullEscapeBreaksLaunderingButNotSafeArea) {
  const SystemParams p{11, 2};
  auto cfg = convex_base(p, 8, 10, 300 + p.n * 97 + p.t * 13 + 8);
  add_hull_escape(cfg, p.t);

  auto laundering = cfg;
  laundering.protocol = ProtocolKind::kVectorByz;
  const auto byz_rep = run(laundering);
  EXPECT_TRUE(byz_rep.box_validity_ok);
  EXPECT_FALSE(byz_rep.convex_validity_ok)
      << "laundering unexpectedly convex-valid; the attack regressed";
  EXPECT_GT(byz_rep.outputs_outside_hull, 0u);

  const auto convex_rep = run(cfg);
  EXPECT_TRUE(convex_rep.box_validity_ok);
  EXPECT_TRUE(convex_rep.convex_validity_ok);
  EXPECT_EQ(convex_rep.outputs_outside_hull, 0u);
}

TEST(ConvexSim, DegeneratePivotRunsStayInsideHull) {
  // Two n = 13, t = 2, d = 3 runs that once ended outside the honest hull,
  // one fault-free and one under two hull-escape attackers: a near-converged
  // view made the LP accept a pivot of ~1e-11, and the tableau it left
  // reported feasibility for a lambda that broke the system, so
  // tverberg_point returned a point outside the view.  lp_feasible now
  // rejects any answer whose lambda misses a row by more than tol.
  for (const auto& [seed, attackers] :
       {std::pair<std::uint64_t, std::uint32_t>{653, 0}, {3144, 2}}) {
    auto cfg = convex_base({13, 2}, 3, 10, seed);
    cfg.seed = seed;
    add_hull_escape(cfg, attackers);
    const auto rep = run(cfg);
    EXPECT_TRUE(rep.all_output) << "seed " << seed;
    EXPECT_TRUE(rep.box_validity_ok) << "seed " << seed;
    EXPECT_TRUE(rep.convex_validity_ok)
        << "seed " << seed << ": " << rep.outputs_outside_hull
        << " outputs escaped the honest hull";
  }
}

TEST(ConvexSim, AllSchedulersStayConvexValid) {
  const SystemParams p{10, 2};
  for (const SchedKind sched :
       {SchedKind::kRandom, SchedKind::kFifo, SchedKind::kGreedySplit,
        SchedKind::kTargeted, SchedKind::kClique}) {
    auto cfg = convex_base(p, 2, 8, 83);
    add_hull_escape(cfg, p.t);
    cfg.sched = sched;
    const auto rep = run(cfg);
    EXPECT_TRUE(rep.convex_validity_ok)
        << "scheduler " << static_cast<int>(sched) << ": "
        << rep.outputs_outside_hull << " outputs escaped";
  }
}

TEST(ConvexSim, RunManyMatchesSerialRuns) {
  std::vector<VectorRunConfig> grid;
  for (std::uint32_t d : {2u, 4u}) {
    auto cfg = convex_base({9, 2}, d, 8, 90 + d);
    add_hull_escape(cfg, 2);
    grid.push_back(std::move(cfg));
  }
  const auto sweep = run_many(grid);
  ASSERT_EQ(sweep.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = run(grid[i]);
    EXPECT_EQ(sweep[i].outputs, serial.outputs);
    EXPECT_EQ(sweep[i].convex_validity_ok, serial.convex_validity_ok);
    EXPECT_EQ(sweep[i].outputs_outside_hull, serial.outputs_outside_hull);
  }
}

TEST(ConvexSim, ValidatesResilience) {
  // kVectorConvex requires n > 3t and a nonzero fault bound; both must be
  // rejected by harness validation, not by a precondition deep in staging.
  auto cfg = convex_base({6, 2}, 2, 4, 99);
  EXPECT_THROW(run(cfg), std::invalid_argument);
  auto no_faults = convex_base({4, 0}, 2, 4, 99);
  EXPECT_THROW(run(no_faults), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::harness
