// Backend parity: the SAME RunConfig — including crash and byzantine
// adversaries — staged through the shared harness must satisfy validity and
// eps-agreement on the deterministic simulator, on the threaded runtime, AND
// on the socket runtime (clean and under injected datagram loss, which the
// perfect link must absorb).  Timing-dependent quantities legitimately
// differ across backends; the protocol guarantees must not.
#include <gtest/gtest.h>

#include <chrono>

#include "adversary/crash_plan.hpp"
#include "backend_matrix.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "exec/transport_backend.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "invariant_oracle.hpp"

namespace apxa::harness {
namespace {

using namespace std::chrono_literals;

class BackendParity : public ::testing::TestWithParam<BackendCase> {
 protected:
  RunReport run_on_backend(RunConfig cfg) {
    apply_backend_case(cfg, GetParam());
    cfg.thread_timeout = 60s;
    const auto rep = run(cfg);
    // Every parity scenario must pass the shared invariant oracle (the same
    // verdict code the fuzzer and the seed-sweep property test call);
    // eps-agreement stays a per-case expectation since round budgets differ.
    oracle::Expect expect;
    expect.require_agreement = false;
    const auto v = oracle::check_run(cfg, rep, expect);
    EXPECT_TRUE(v.ok) << v.summary();
    return rep;
  }
};

RunConfig crash_mean_base(SystemParams p, Round rounds) {
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.averager = core::Averager::kMean;
  cfg.fixed_rounds = rounds;
  cfg.epsilon = 1e-2;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  return cfg;
}

TEST_P(BackendParity, FaultFreeCrashModel) {
  const SystemParams p{5, 1};
  const Round rounds =
      core::rounds_for_bound(1.0, 1e-2, core::Averager::kMean, p);
  const auto rep = run_on_backend(crash_mean_base(p, rounds));
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst gap " << rep.worst_pair_gap;
  // Fixed-round runs send exactly n * (n-1) messages per round on every
  // backend — message complexity is schedule-independent.
  EXPECT_EQ(rep.metrics.messages_sent,
            static_cast<std::uint64_t>(p.n) * (p.n - 1) * rounds);
}

TEST_P(BackendParity, PartialMulticastCrash) {
  const SystemParams p{5, 1};
  auto cfg = crash_mean_base(p, 8);
  // Party 4 finishes one full round, then its round-1 multicast reaches only
  // parties {0, 1} before the crash — the classic "split the audience" cut.
  cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                    {0, 1})};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst gap " << rep.worst_pair_gap;
}

TEST_P(BackendParity, CrashAtStartup) {
  const SystemParams p{5, 1};
  auto cfg = crash_mean_base(p, 8);
  adversary::CrashSpec s;
  s.who = 2;
  s.after_sends = 0;  // crashed before its first send
  cfg.crashes = {s};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

TEST_P(BackendParity, CrashAtExactSendBudgetBoundary) {
  // The crash limit lands exactly on the victim's final send of the whole
  // run; both backends must still report it crashed (it stops receiving the
  // final-round quorum, so it never outputs) and exclude it from verdicts.
  const SystemParams p{5, 1};
  const Round rounds = 6;
  auto cfg = crash_mean_base(p, rounds);
  adversary::CrashSpec s;
  s.who = 4;
  s.after_sends = static_cast<std::uint64_t>(rounds) * (p.n - 1);
  cfg.crashes = {s};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst gap " << rep.worst_pair_gap;
}

TEST_P(BackendParity, ByzantineEquivocator) {
  const SystemParams p{6, 1};  // n > 5t for the DLPSW-async protocol
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kByzRound;
  cfg.fixed_rounds = 10;
  cfg.epsilon = 5e-2;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  adversary::ByzSpec b;
  b.who = 0;
  b.kind = adversary::ByzKind::kEquivocate;
  b.lo = -5.0;
  b.hi = 5.0;
  cfg.byz = {b};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.validity_ok);  // hull of HONEST inputs despite byz extremes
  EXPECT_TRUE(rep.agreement_ok) << "worst gap " << rep.worst_pair_gap;
}

TEST_P(BackendParity, WitnessProtocolWithSilentByzantine) {
  const SystemParams p{4, 1};  // n > 3t for the witness technique
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kWitness;
  cfg.fixed_rounds = 3;  // iterations; factor 2 => spread <= 1/8
  cfg.epsilon = 0.2;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  adversary::ByzSpec b;
  b.who = 3;
  b.kind = adversary::ByzKind::kSilent;
  cfg.byz = {b};
  const auto rep = run_on_backend(cfg);
  EXPECT_TRUE(rep.all_output);
  ASSERT_EQ(rep.outputs.size(), p.n - 1);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "worst gap " << rep.worst_pair_gap;
}

TEST_P(BackendParity, ReportsSpreadTrace) {
  const SystemParams p{5, 1};
  auto cfg = crash_mean_base(p, 4);
  const auto rep = run_on_backend(cfg);
  // Round-entry traces must cover every budgeted round on both transports;
  // round 0 spread is the input spread exactly.
  ASSERT_GE(rep.spread_by_round.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.spread_by_round[0], 1.0);
  EXPECT_GE(rep.max_round_reached, cfg.fixed_rounds - 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendParity,
                         ::testing::ValuesIn(kBackendMatrix),
                         backend_case_name);

// The staging helpers must also work on caller-constructed backends (the
// escape-hatch path the harness docs promise).
TEST(HarnessStaging, ExplicitBackendConstruction) {
  const SystemParams p{5, 1};
  auto cfg = crash_mean_base(p, 4);
  exec::TransportBackend<net::SimNetwork> backend(p, make_scheduler(cfg));
  const auto rep = execute(cfg, backend);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

TEST(HarnessStaging, RejectsBadConfigOnEveryBackend) {
  for (const auto kind :
       {BackendKind::kSim, BackendKind::kThread, BackendKind::kSocket}) {
    RunConfig cfg;
    cfg.params = {5, 1};
    cfg.backend = kind;
    cfg.inputs = {1.0, 2.0};  // wrong size
    EXPECT_THROW(run(cfg), std::invalid_argument);
  }
}

}  // namespace
}  // namespace apxa::harness
