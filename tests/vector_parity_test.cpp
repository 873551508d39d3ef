// Vector backend parity: the SAME VectorRunConfig (d >= 2, crash and
// byzantine adversaries) staged through the shared harness must satisfy box
// validity and L-infinity eps-agreement on the deterministic simulator, the
// threaded runtime, and the socket runtime (clean and under injected
// datagram loss).  Timing-dependent quantities legitimately differ across
// backends; the coordinate-wise guarantees must not.
#include <gtest/gtest.h>

#include <chrono>

#include "adversary/crash_plan.hpp"
#include "backend_matrix.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "exec/sim_backend.hpp"
#include "exec/thread_backend.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "invariant_oracle.hpp"
#include "harness/run_many.hpp"
#include "harness/session.hpp"

namespace apxa::harness {
namespace {

using namespace std::chrono_literals;

class VectorParity : public ::testing::TestWithParam<BackendCase> {
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

VectorRunConfig crash_base(SystemParams p, std::uint32_t dim, Round rounds) {
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorCrash;
  cfg.dim = dim;
  cfg.fixed_rounds = rounds;
  cfg.epsilon = 1e-2;
  Rng rng(17);
  cfg.inputs = random_vector_inputs(rng, p.n, dim, 0.0, 1.0);
  return cfg;
}

TEST_P(VectorParity, FaultFreeCrashModel) {
  const SystemParams p{5, 1};
  const Round rounds =
      core::rounds_for_bound(1.0, 1e-2, core::Averager::kMean, p);
  const auto rep = run_on_backend(crash_base(p, 3, rounds));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n);
  for (const auto& out : rep.outputs) EXPECT_EQ(out.size(), 3u);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst Linf gap " << rep.worst_linf_gap;
  // One vector message per (party, round) pair regardless of d or backend.
  EXPECT_EQ(rep.metrics.messages_sent,
            static_cast<std::uint64_t>(p.n) * (p.n - 1) * rounds);
}

TEST_P(VectorParity, PartialMulticastCrash) {
  const SystemParams p{5, 1};
  auto cfg = crash_base(p, 2, 8);
  // Party 4 finishes one full round, then its round-1 multicast reaches only
  // parties {0, 1} before the crash — the classic "split the audience" cut,
  // now splitting a 2-D view.
  cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                    {0, 1})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst Linf gap " << rep.worst_linf_gap;
}

TEST_P(VectorParity, ByzantineEquivocator) {
  const SystemParams p{6, 1};  // n > 5t for the per-coordinate DLPSW rule
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorByz;
  cfg.dim = 2;
  cfg.fixed_rounds = 10;
  cfg.epsilon = 5e-2;
  cfg.inputs = corner_split_inputs(p.n, 2, p.n / 2, 0.0, 1.0);
  adversary::ByzSpec b;
  b.who = 0;
  b.kind = adversary::ByzKind::kEquivocate;
  b.lo = -5.0;
  b.hi = 5.0;
  cfg.byz = {b};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  // Box of HONEST inputs despite byz extremes at +/-5 in every coordinate.
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst Linf gap " << rep.worst_linf_gap;
}

TEST_P(VectorParity, ByzantineSpoilerWithCrash) {
  // Mixed adversary: one adaptive spoiler plus one mid-multicast crash, the
  // full fault budget of n = 11, t = 2 (n > 5t).
  const SystemParams p{11, 2};
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorByz;
  cfg.dim = 4;
  cfg.fixed_rounds = 12;
  cfg.epsilon = 5e-2;
  Rng rng(23);
  cfg.inputs = random_vector_inputs(rng, p.n, 4, -1.0, 1.0);
  adversary::ByzSpec b;
  b.who = 0;
  b.kind = adversary::ByzKind::kSpoiler;
  b.amplify = 3.0;
  cfg.byz = {b};
  cfg.crashes = {adversary::partial_multicast_crash(p, 10, 1, {1, 2, 3})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 2);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst Linf gap " << rep.worst_linf_gap;
}

TEST_P(VectorParity, ReportsLinfSpreadTrace) {
  const SystemParams p{5, 1};
  auto cfg = crash_base(p, 2, 4);
  cfg.inputs = corner_split_inputs(p.n, 2, 2, 0.0, 1.0);
  const auto rep = run_on_backend(cfg);
  // Round-entry traces must cover every budgeted round on both transports;
  // round 0 is the corner split, so its L-infinity spread is exactly 1.
  ASSERT_GE(rep.linf_spread_by_round.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.linf_spread_by_round[0], 1.0);
  EXPECT_GE(rep.max_round_reached, cfg.fixed_rounds - 1);
  EXPECT_LT(rep.linf_spread_by_round.back(), 1.0);
}

TEST_P(VectorParity, ZeroRoundsOutputsInputs) {
  const auto rep = run_on_backend(crash_base({4, 1}, 2, 0));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), 4u);
  EXPECT_EQ(rep.metrics.messages_sent, 0u);
  EXPECT_TRUE(rep.box_validity_ok);
}

TEST_P(VectorParity, SessionMultiplexedInstancesKeepVerdicts) {
  // Three concurrent vector instances multiplexed over one batched transport
  // (harness::Session) must each satisfy the single-instance guarantees on
  // both backends, with logical message counts identical to three serial
  // runs (batching packs packets, never changes message complexity).
  const SystemParams p{5, 1};
  const Round rounds =
      core::rounds_for_bound(1.0, 1e-2, core::Averager::kMean, p);
  SessionOptions opts;
  opts.batching = 8;
  Session s(opts);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    auto cfg = crash_base(p, 2, rounds);
    Rng rng(17 + seed);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, 0.0, 1.0);
    apply_backend_case(cfg, GetParam());
    cfg.thread_timeout = 60s;
    s.add(cfg);
  }
  const SessionReport rep = s.run();
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(rep.metrics.messages_sent,
            3u * static_cast<std::uint64_t>(p.n) * (p.n - 1) * rounds);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rep.vector_reports[i].has_value()) << "instance " << i;
    const VectorRunReport& r = *rep.vector_reports[i];
    EXPECT_TRUE(r.box_validity_ok) << "instance " << i;
    EXPECT_TRUE(r.agreement_ok)
        << "instance " << i << " gap " << r.worst_linf_gap;
    ASSERT_EQ(r.outputs.size(), p.n);
    for (const auto& out : r.outputs) EXPECT_EQ(out.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, VectorParity,
                         ::testing::ValuesIn(kBackendMatrix),
                         backend_case_name);

// --- simulator-only properties ---------------------------------------------

TEST(VectorSim, AllSchedulersConverge) {
  const SystemParams p{8, 2};
  for (const SchedKind sched :
       {SchedKind::kRandom, SchedKind::kFifo, SchedKind::kGreedySplit,
        SchedKind::kTargeted, SchedKind::kClique}) {
    auto cfg = crash_base(p, 2, 0);
    cfg.epsilon = 1e-3;
    cfg.fixed_rounds =
        core::rounds_for_bound(1.0, cfg.epsilon, core::Averager::kMean, p);
    cfg.sched = sched;
    const auto rep = run(cfg);
    EXPECT_TRUE(rep.all_output) << static_cast<int>(sched);
    EXPECT_TRUE(rep.box_validity_ok) << static_cast<int>(sched);
    EXPECT_TRUE(rep.agreement_ok)
        << static_cast<int>(sched) << " gap " << rep.worst_linf_gap;
  }
}

TEST(VectorSim, DeterministicReplay) {
  auto cfg = crash_base({7, 2}, 3, 6);
  cfg.sched = SchedKind::kRandom;
  cfg.seed = 99;
  Rng rng(3);
  cfg.crashes = adversary::random_crashes(rng, cfg.params, 2, 6);
  const auto a = run(cfg);
  const auto b = run(cfg);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.linf_spread_by_round, b.linf_spread_by_round);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
}

TEST(VectorSim, RunManyMatchesSerialRuns) {
  std::vector<VectorRunConfig> grid;
  for (std::uint32_t d : {1u, 2u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto cfg = crash_base({6, 1}, d, 5);
      Rng rng(seed * 11 + d);
      cfg.inputs = random_vector_inputs(rng, 6, d, -2.0, 2.0);
      cfg.seed = seed;
      grid.push_back(std::move(cfg));
    }
  }
  const auto parallel = run_many(grid, {.workers = 4});
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = run(grid[i]);
    EXPECT_EQ(parallel[i].outputs, serial.outputs) << "slot " << i;
    EXPECT_EQ(parallel[i].worst_linf_gap, serial.worst_linf_gap);
  }
}

TEST(VectorSim, DimensionOneMatchesScalarCrashVerdicts) {
  // A d = 1 vector run is the scalar protocol over a one-element vector: the
  // verdicts (validity, agreement) must coincide with the scalar harness on
  // the same inputs even though the wire format differs.
  const SystemParams p{6, 1};
  const Round rounds =
      core::rounds_for_bound(1.0, 1e-3, core::Averager::kMean, p);

  RunConfig scfg;
  scfg.params = p;
  scfg.fixed_rounds = rounds;
  scfg.epsilon = 1e-3;
  scfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  const auto srep = run(scfg);

  VectorRunConfig vcfg;
  vcfg.params = p;
  vcfg.dim = 1;
  vcfg.fixed_rounds = rounds;
  vcfg.epsilon = 1e-3;
  for (const double x : scfg.inputs) vcfg.inputs.push_back({x});
  const auto vrep = run(vcfg);

  EXPECT_EQ(srep.validity_ok, vrep.box_validity_ok);
  EXPECT_EQ(srep.agreement_ok, vrep.agreement_ok);
  EXPECT_EQ(srep.metrics.messages_sent, vrep.metrics.messages_sent);
}

// --- staging / validation ---------------------------------------------------

TEST(VectorStaging, ExplicitBackendConstruction) {
  auto cfg = crash_base({5, 1}, 2, 4);
  exec::SimBackend backend(cfg.params, make_scheduler(cfg));
  const auto rep = execute(cfg, backend);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.box_validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

TEST(VectorStaging, RejectsBadConfigOnEveryBackend) {
  for (const auto kind :
       {BackendKind::kSim, BackendKind::kThread, BackendKind::kSocket}) {
    auto cfg = crash_base({5, 1}, 2, 4);
    cfg.backend = kind;
    cfg.inputs.pop_back();  // wrong row count
    EXPECT_THROW(run(cfg), std::invalid_argument);

    auto ragged = crash_base({5, 1}, 2, 4);
    ragged.backend = kind;
    ragged.inputs[3] = {1.0};  // wrong dimension
    EXPECT_THROW(run(ragged), std::invalid_argument);
  }
}

TEST(VectorStaging, ScalarAndVectorKindsDoNotCross) {
  // A vector protocol kind in a scalar RunConfig (and vice versa) is a usage
  // error caught at validation, not a silent mis-build.
  RunConfig scfg;
  scfg.params = {5, 1};
  scfg.protocol = ProtocolKind::kVectorCrash;
  scfg.inputs = linear_inputs(5, 0.0, 1.0);
  EXPECT_THROW(run(scfg), std::invalid_argument);

  auto vcfg = crash_base({5, 1}, 2, 4);
  vcfg.protocol = ProtocolKind::kCrashRound;
  EXPECT_THROW(run(vcfg), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::harness
