// Cross-protocol property sweeps: the two safety properties under randomized
// fault plans, schedulers, and input distributions — the library's broadest
// failure-injection net.
#include <gtest/gtest.h>

#include <tuple>

#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace apxa::core {
namespace {

using namespace harness;

using adversary::ByzKind;

struct Case {
  ProtocolKind protocol;
  std::uint32_t n, t;
  std::uint64_t seed;
};

Round budget_for(const Case& c, double M, double eps) {
  switch (c.protocol) {
    case ProtocolKind::kCrashRound:
      return rounds_for_bound(M, eps, Averager::kMean, {c.n, c.t});
    case ProtocolKind::kByzRound:
      return rounds_for_bound(M, eps, Averager::kDlpswAsync, {c.n, c.t});
    case ProtocolKind::kWitness:
      return std::max<Round>(1, rounds_needed(2.0 * M, eps,
                                              predicted_factor_witness()));
    case ProtocolKind::kVectorCrash:
    case ProtocolKind::kVectorByz:
    case ProtocolKind::kVectorConvex:
    case ProtocolKind::kVectorConvexRB:
      break;  // vector protocols are exercised by vector/convex/collect tests
  }
  return 1;
}

class ProtocolFuzz : public ::testing::TestWithParam<Case> {};

TEST_P(ProtocolFuzz, SafetyAndLiveness) {
  const Case c = GetParam();
  Rng rng(c.seed * 7919 + 13);

  RunConfig cfg;
  cfg.params = {c.n, c.t};
  cfg.protocol = c.protocol;
  cfg.epsilon = 1e-3;
  cfg.inputs = random_inputs(rng, c.n, -3.0, 3.0);
  cfg.fixed_rounds = budget_for(c, 3.0, cfg.epsilon);
  cfg.seed = c.seed;
  // Any of the five schedulers (all legal asynchrony).
  cfg.sched = static_cast<SchedKind>(rng.next_below(5));

  // Random fault plan within budget: byzantine only where the protocol
  // tolerates it, crashes everywhere.
  std::uint32_t faults_left = c.t;
  const bool byz_ok = c.protocol != ProtocolKind::kCrashRound;
  std::vector<ProcessId> ids(c.n);
  for (ProcessId p = 0; p < c.n; ++p) ids[p] = p;
  rng.shuffle(ids);
  std::size_t next_id = 0;
  if (byz_ok && faults_left > 0 && rng.next_bool(0.8)) {
    const auto byz_count =
        static_cast<std::uint32_t>(1 + rng.next_below(faults_left));
    for (std::uint32_t i = 0; i < byz_count; ++i) {
      adversary::ByzSpec s;
      s.who = ids[next_id++];
      s.kind = static_cast<ByzKind>(rng.next_below(6));
      s.lo = -50.0;
      s.hi = 50.0;
      s.seed = rng.next_u64();
      cfg.byz.push_back(s);
      --faults_left;
    }
  }
  if (faults_left > 0 && rng.next_bool(0.7)) {
    const auto crash_count =
        static_cast<std::uint32_t>(1 + rng.next_below(faults_left));
    for (std::uint32_t i = 0; i < crash_count; ++i) {
      adversary::CrashSpec s;
      s.who = ids[next_id++];
      s.after_sends = rng.next_below(
          static_cast<std::uint64_t>(c.n - 1) * (cfg.fixed_rounds + 1) + 1);
      cfg.crashes.push_back(s);
    }
  }

  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output) << "liveness";
  EXPECT_TRUE(rep.validity_ok) << "validity";
  EXPECT_TRUE(rep.agreement_ok) << "agreement gap " << rep.worst_pair_gap;
  EXPECT_EQ(rep.status, net::RunStatus::kPredicateSatisfied);
}

std::vector<Case> fuzz_cases() {
  std::vector<Case> cs;
  std::uint64_t seed = 1;
  for (auto [n, t] : {std::pair{5u, 2u}, {9u, 4u}, {12u, 5u}}) {
    for (int i = 0; i < 6; ++i) cs.push_back({ProtocolKind::kCrashRound, n, t, seed++});
  }
  for (auto [n, t] : {std::pair{6u, 1u}, {11u, 2u}, {16u, 3u}}) {
    for (int i = 0; i < 6; ++i) cs.push_back({ProtocolKind::kByzRound, n, t, seed++});
  }
  for (auto [n, t] : {std::pair{4u, 1u}, {7u, 2u}, {10u, 3u}}) {
    for (int i = 0; i < 6; ++i) cs.push_back({ProtocolKind::kWitness, n, t, seed++});
  }
  return cs;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ProtocolFuzz, ::testing::ValuesIn(fuzz_cases()));

// Input helper coverage.
TEST(DriverHelpers, LinearInputs) {
  const auto v = linear_inputs(5, 0.0, 1.0);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.front(), 0.0);
  EXPECT_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_EQ(linear_inputs(1, 3.0, 9.0), (std::vector<double>{3.0}));
}

TEST(DriverHelpers, SplitInputs) {
  const auto v = split_inputs(5, 2, -1.0, 1.0);
  EXPECT_EQ(v, (std::vector<double>{-1.0, -1.0, -1.0, 1.0, 1.0}));
  EXPECT_THROW(split_inputs(3, 4, 0.0, 1.0), std::invalid_argument);
}

TEST(DriverHelpers, RandomInputsInRange) {
  Rng rng(17);
  const auto v = random_inputs(rng, 100, -2.0, 2.0);
  for (double x : v) {
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 2.0);
  }
}

}  // namespace
}  // namespace apxa::core
