// DLPSW asynchronous byzantine protocol (t < n/5): validity and agreement
// against every attacker strategy, plus resilience-boundary behavior.
#include <gtest/gtest.h>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace apxa::core {
namespace {

using namespace harness;

using adversary::ByzKind;
using adversary::ByzSpec;

RunConfig byz_config(std::uint32_t n, std::uint32_t t, double eps = 1e-3) {
  RunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = ProtocolKind::kByzRound;
  cfg.mode = TerminationMode::kFixedRounds;
  cfg.epsilon = eps;
  return cfg;
}

ByzSpec make_byz(ProcessId who, ByzKind kind) {
  ByzSpec s;
  s.who = who;
  s.kind = kind;
  s.lo = -1e6;
  s.hi = 1e6;
  s.seed = who + 1;
  return s;
}

TEST(ByzAa, FaultFreeConvergence) {
  auto cfg = byz_config(6, 1, 1e-4);
  cfg.inputs = linear_inputs(6, 0.0, 1.0);
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(ByzAa, ResilienceGuardAtBoundary) {
  auto cfg = byz_config(5, 1);  // n = 5t: rejected (needs n > 5t)
  cfg.inputs = linear_inputs(5, 0.0, 1.0);
  cfg.fixed_rounds = 2;
  EXPECT_THROW(run(cfg), std::invalid_argument);
}

class ByzStrategySweep : public ::testing::TestWithParam<ByzKind> {};

TEST_P(ByzStrategySweep, SafetyUnderAttack) {
  const ByzKind kind = GetParam();
  auto cfg = byz_config(6, 1, 1e-3);
  cfg.inputs = linear_inputs(6, 0.0, 1.0);  // byz party 5's input unused
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  cfg.byz = {make_byz(5, kind)};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output) << "liveness lost";
  EXPECT_TRUE(rep.validity_ok) << "hull violated under attack";
  EXPECT_TRUE(rep.agreement_ok) << "gap " << rep.worst_pair_gap;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ByzStrategySweep,
                         ::testing::Values(ByzKind::kSilent, ByzKind::kExtremeLow,
                                           ByzKind::kExtremeHigh,
                                           ByzKind::kEquivocate, ByzKind::kSpoiler,
                                           ByzKind::kNoise));

TEST(ByzAa, MaxFaultsLargerSystem) {
  // n = 11, t = 2: two attackers with different strategies.
  auto cfg = byz_config(11, 2, 1e-3);
  cfg.inputs = linear_inputs(11, -1.0, 1.0);
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  cfg.byz = {make_byz(0, ByzKind::kSpoiler), make_byz(10, ByzKind::kEquivocate)};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(ByzAa, MixedCrashAndByzantine) {
  // Fault budget split: one byzantine, one crash (t = 2).
  auto cfg = byz_config(11, 2, 1e-3);
  cfg.inputs = linear_inputs(11, 0.0, 2.0);
  cfg.fixed_rounds = rounds_for_bound(2.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  cfg.byz = {make_byz(3, ByzKind::kSpoiler)};
  cfg.crashes = {adversary::partial_multicast_crash(cfg.params, 7, 1, {0, 1, 2})};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(ByzAa, AdversarialSchedulerPlusByzantine) {
  auto cfg = byz_config(6, 1, 1e-2);
  cfg.inputs = split_inputs(6, 3, 0.0, 1.0);
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  cfg.sched = SchedKind::kGreedySplit;
  cfg.byz = {make_byz(2, ByzKind::kSpoiler)};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(ByzAa, BudgetInflationClampedInAdaptiveMode) {
  // A byzantine party claims an absurd round budget; the cap keeps the run
  // from being stretched unboundedly.
  auto cfg = byz_config(6, 1, 1e-2);
  cfg.mode = TerminationMode::kAdaptive;
  cfg.inputs = linear_inputs(6, 0.0, 1.0);
  auto byz = make_byz(1, ByzKind::kNoise);
  byz.lo = 0.0;
  byz.hi = 1.0;
  byz.inflate_budget = 1'000'000;
  cfg.byz = {byz};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  // Budgets were capped: the run finished in a bounded number of rounds.
  EXPECT_LE(rep.max_round_reached, 64u);
}

TEST(ByzAa, SpreadNeverExpands) {
  // The laundering property (<= t byzantine values per view, reduce_2t strips
  // them) guarantees every new value stays inside the old correct hull, so
  // the per-round factor is never below 1 even under attack.
  auto cfg = byz_config(11, 2);
  cfg.inputs = split_inputs(11, 5, 0.0, 1.0);
  cfg.fixed_rounds = 6;
  cfg.byz = {make_byz(0, ByzKind::kSpoiler), make_byz(10, ByzKind::kSpoiler)};
  const auto rep = run(cfg);
  for (double f : rep.round_factors) EXPECT_GE(f, 1.0 - 1e-9);
  ASSERT_GE(rep.spread_by_round.size(), 2u);
  EXPECT_LT(rep.spread_by_round.back(), rep.spread_by_round.front());
}

}  // namespace
}  // namespace apxa::core
