// Robustness batch: codec fuzzing, byzantine payload injection at the
// network level, collector sweeps, timed crashes, and protocol behavior on
// degenerate inputs.  Everything here is about the library *not breaking*
// when fed garbage or driven at its edges.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "adversary/byzantine.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/collect.hpp"
#include "core/round_engine.hpp"
#include "geom/geom.hpp"
#include "harness/harness.hpp"
#include "net/sim.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

// ---------------------------------------------------------------------------
// Codec fuzz: random byte strings must decode to nullopt or throw the
// controlled overrun error — never crash, never return half-parsed values
// silently accepted by protocols.
// ---------------------------------------------------------------------------

TEST(CodecFuzz, RandomBytesNeverCrash) {
  Rng rng(0xfadedbeeULL);
  int decoded = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t len = rng.next_below(40);
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    try {
      if (decode_round(junk)) ++decoded;
      if (decode_done(junk)) ++decoded;
      if (decode_rb(junk)) ++decoded;
      if (decode_report(junk)) ++decoded;
      if (decode_vec_round(junk)) ++decoded;
    } catch (const std::invalid_argument&) {
      // controlled rejection of truncated varints/payloads
    }
  }
  // Random bytes occasionally form valid messages; that is fine — the point
  // is the absence of crashes and unbounded allocations.
  SUCCEED() << decoded << " random payloads happened to decode";
}

TEST(CodecFuzz, MutatedValidMessagesHandled) {
  Rng rng(17);
  const Bytes valid = encode_round(RoundMsg{1234, 5.678, 9});
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<std::byte>(rng.next_below(256));
    try {
      (void)decode_round(mutated);
      (void)decode_rb(mutated);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Network-level garbage injection: a byzantine party spraying raw random
// bytes must not harm safety or liveness of any protocol.
// ---------------------------------------------------------------------------

class GarbageSprayer final : public net::Process {
 public:
  explicit GarbageSprayer(std::uint64_t seed) : rng_(seed) {}

  void on_start(net::Context& ctx) override { spray(ctx); }
  void on_message(net::Context& ctx, ProcessId, BytesView) override {
    if (++heard_ % 3 == 0 && sprays_ < 40) spray(ctx);
  }

 private:
  void spray(net::Context& ctx) {
    ++sprays_;
    for (ProcessId to = 0; to < ctx.params().n; ++to) {
      if (to == ctx.self()) continue;
      Bytes junk(rng_.next_below(24));
      for (auto& b : junk) b = static_cast<std::byte>(rng_.next_below(256));
      ctx.send(to, std::move(junk));
    }
  }

  Rng rng_;
  int heard_ = 0;
  int sprays_ = 0;
};

TEST(GarbageInjection, CrashProtocolUnaffected) {
  const SystemParams p{7, 2};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(3));
  for (ProcessId i = 0; i < 6; ++i) {
    net.add_process(std::make_unique<RoundAaProcess>(
        crash_aa_config(p, static_cast<double>(i), 6)));
  }
  net.add_process(std::make_unique<GarbageSprayer>(5));
  net.mark_byzantine(6);
  net.start();
  net.run_until([&net] { return net.inbox().all_correct_output(); });
  EXPECT_TRUE(net.inbox().all_correct_output());
  const auto outs = net.inbox().correct_outputs();
  for (double y : outs) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 5.0);
  }
}

TEST(GarbageInjection, WitnessProtocolUnaffected) {
  const SystemParams p{7, 2};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  // The noise strategy sends well-formed RB messages with junk values; the
  // sprayer above covers raw bytes.  Use both faults.
  adversary::ByzSpec b;
  b.who = 0;
  b.kind = adversary::ByzKind::kNoise;
  b.lo = -1e9;
  b.hi = 1e9;
  cfg.byz = {b};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
}

// ---------------------------------------------------------------------------
// Collector sweeps: quorum arithmetic over the whole admissible (n, t) grid.
// ---------------------------------------------------------------------------

class CollectorSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(CollectorSweep, FreezeExactlyAtQuorum) {
  const auto [n, t] = GetParam();
  RoundCollector c(SystemParams{n, t});
  c.add_own(0, 0.0);
  const std::uint32_t quorum = n - t;
  for (std::uint32_t k = 1; k < quorum; ++k) {
    EXPECT_FALSE(c.ready(0)) << "froze early at " << k;
    c.add_remote(k, 0, static_cast<double>(k));
  }
  EXPECT_TRUE(c.ready(0));
  EXPECT_EQ(c.view(0).size(), quorum);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollectorSweep,
    ::testing::Values(std::pair{3u, 1u}, std::pair{4u, 1u}, std::pair{5u, 2u},
                      std::pair{7u, 3u}, std::pair{10u, 4u}, std::pair{21u, 10u},
                      std::pair{33u, 16u}));

// ---------------------------------------------------------------------------
// Timed crashes and degenerate inputs.
// ---------------------------------------------------------------------------

TEST(TimedCrash, MidRunCrashStillConverges) {
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  const auto baseline = run(cfg);
  ASSERT_TRUE(baseline.all_output);

  // Crash two parties at virtual times inside the run.
  net::SimNetwork net(cfg.params, std::make_unique<sched::RandomScheduler>(1));
  for (ProcessId i = 0; i < 7; ++i) {
    net.add_process(std::make_unique<RoundAaProcess>(
        crash_aa_config(cfg.params, cfg.inputs[i], 8)));
  }
  net.crash_at_time(1, 2.5);
  net.crash_at_time(5, 4.0);
  net.start();
  net.run_until([&net] { return net.inbox().all_correct_output(); });
  EXPECT_TRUE(net.inbox().all_correct_output());
  const auto outs = net.inbox().correct_outputs();
  EXPECT_EQ(outs.size(), 5u);
  std::vector<double> sorted = outs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_LE(sorted.back() - sorted.front(), 1.0);
}

TEST(Degenerate, IdenticalExtremeInputs) {
  RunConfig cfg;
  cfg.params = {5, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.inputs.assign(5, 1e308);  // near DBL_MAX, all equal
  cfg.fixed_rounds = 3;
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  for (double y : rep.outputs) EXPECT_EQ(y, 1e308);
}

TEST(Degenerate, TinySpreadBelowEpsilon) {
  RunConfig cfg;
  cfg.params = {5, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.mode = TerminationMode::kAdaptive;
  cfg.epsilon = 1.0;
  cfg.inputs = {0.0, 1e-9, -1e-9, 2e-9, 0.0};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.agreement_ok);
  EXPECT_LE(rep.max_round_reached, 2u);
}

TEST(Degenerate, MinimalSystemN3T1) {
  RunConfig cfg;
  cfg.params = {3, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.epsilon = 1e-3;
  cfg.inputs = {0.0, 1.0, 0.25};
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kMean, cfg.params);
  cfg.crashes = {adversary::CrashSpec{2, 3, {}}};
  const auto rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

// Attack-cap hygiene: attackers stop at max_instances, so even with no
// correct-party termination the message volume is bounded.
TEST(ByzCaps, RoundAttackerBounded) {
  const SystemParams p{4, 1};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  adversary::ByzSpec spec;
  spec.who = 3;
  spec.kind = adversary::ByzKind::kExtremeHigh;
  spec.max_instances = 5;
  for (ProcessId i = 0; i < 3; ++i) {
    RoundAaConfig pc = crash_aa_config(p, 0.0, 1);
    pc.mode = TerminationMode::kLive;  // never stops on its own
    net.add_process(std::make_unique<RoundAaProcess>(pc));
  }
  net.add_process(std::make_unique<adversary::ByzRoundProcess>(spec));
  net.mark_byzantine(3);
  net.start();
  // Live correct parties generate unbounded rounds; cap deliveries and check
  // the attacker's send count stayed within 5 rounds x 3 receivers.
  net.run(20'000);
  EXPECT_LE(net.metrics().sent_by[3], 5u * 3u);
}

// ---------------------------------------------------------------------------
// Non-finite byzantine values.  The codec carries NaN and infinity bit for
// bit (reliable broadcast must tally wire values exactly), so the places
// that admit remote values into a view drop them instead: one NaN in a view
// makes every average NaN, and an infinity drags the safe-area midpoint
// outside the honest hull.
// ---------------------------------------------------------------------------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

class NullContext final : public net::Context {
 public:
  explicit NullContext(SystemParams p) : params_(p) {}
  void send(ProcessId, net::Payload) override {}
  void multicast(net::Payload) override {}
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] SystemParams params() const override { return params_; }

 private:
  SystemParams params_;
};

TEST(NonFinite, RoundCollectorDropsAndCountsThem) {
  RoundCollector c(SystemParams{4, 1});
  c.add_own(0, 1.0);
  c.add_remote(1, 0, kNan);
  c.add_remote(2, 0, -kInf);
  EXPECT_FALSE(c.ready(0));
  EXPECT_EQ(c.malformed(), 2u);
  c.add_remote(1, 0, 2.0);  // the sender's first finite value still counts
  c.add_remote(3, 0, 3.0);
  ASSERT_TRUE(c.ready(0));
  for (const double v : c.view(0)) EXPECT_TRUE(std::isfinite(v));
}

TEST(NonFinite, QuorumCollectorDropsAndCountsThem) {
  const SystemParams p{4, 1};
  NullContext ctx(p);
  int views = 0;
  auto c = make_collector(
      CollectMode::kQuorum, p, /*dim=*/2, /*max_rounds=*/4,
      [&](net::Context&, Round, const std::vector<CollectEntry>& view) {
        ++views;
        for (const auto& e : view) EXPECT_TRUE(geom::all_finite(e.value));
      });
  c->begin_round(ctx, 0, {0.0, 0.0});
  EXPECT_TRUE(c->handle(ctx, 1, encode_vec_round(0, {kNan, 1.0})));
  EXPECT_TRUE(c->handle(ctx, 2, encode_vec_round(0, {1.0, kInf})));
  EXPECT_EQ(c->malformed(), 2u);
  EXPECT_EQ(views, 0);
  c->handle(ctx, 1, encode_vec_round(0, {1.0, 1.0}));
  c->handle(ctx, 3, encode_vec_round(0, {2.0, 2.0}));
  EXPECT_EQ(views, 1);
}

TEST(NonFinite, EqualizedCollectorDropsRbDeliveredNan) {
  // 2t + 1 READY votes for one bit pattern make the hub deliver it, NaN or
  // not; the collector must then keep the origin out of the round.
  const SystemParams p{4, 1};
  NullContext ctx(p);
  auto c = make_collector(CollectMode::kEqualized, p, /*dim=*/2,
                          /*max_rounds=*/4,
                          [](net::Context&, Round,
                             const std::vector<CollectEntry>&) {});
  const RbVecMsg ready{MsgType::kRbVecReady, 0, /*origin=*/3, {kNan, 0.0}};
  for (ProcessId voter : {1u, 2u, 3u}) {
    EXPECT_TRUE(c->handle(ctx, voter, encode_rb_vec(ready)));
  }
  EXPECT_EQ(c->malformed(), 1u);
}

adversary::ByzSpec non_finite_attacker(ProcessId who, adversary::ByzKind kind,
                                       double hi) {
  adversary::ByzSpec s;
  s.who = who;
  s.kind = kind;
  s.lo = -1.0;
  s.hi = hi;
  s.seed = who + 1;
  return s;
}

TEST(NonFinite, ByzRoundNanEquivocatorsKeepValidityAndAgreement) {
  RunConfig cfg;
  cfg.params = {11, 2};
  cfg.protocol = ProtocolKind::kByzRound;
  cfg.mode = TerminationMode::kFixedRounds;
  cfg.epsilon = 1e-3;
  for (int i = 0; i < 11; ++i) cfg.inputs.push_back(-1.0 + 0.2 * i);
  cfg.fixed_rounds = rounds_for_bound(2.0, cfg.epsilon, Averager::kDlpswAsync,
                                      cfg.params);
  cfg.byz = {non_finite_attacker(0, adversary::ByzKind::kEquivocate, kNan),
             non_finite_attacker(10, adversary::ByzKind::kEquivocate, kNan)};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    cfg.seed = seed;
    const auto rep = run(cfg);
    EXPECT_TRUE(rep.all_output) << "seed " << seed;
    EXPECT_TRUE(rep.validity_ok) << "seed " << seed;
    EXPECT_TRUE(rep.agreement_ok) << "seed " << seed << " gap "
                                  << rep.worst_pair_gap;
  }
}

TEST(NonFinite, WitnessExtremeNanOrInfKeepsValidityAndAgreement) {
  // RB delivers the attacker's non-finite value to every honest party alike;
  // the witness phase must keep it out of every view.
  RunConfig cfg;
  cfg.params = {4, 1};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.epsilon = 1e-3;
  cfg.inputs = {-1.0, 0.0, 0.5, 1.0};
  cfg.fixed_rounds = rounds_needed(2.0, cfg.epsilon, predicted_factor_witness());
  for (const double hi : {kNan, kInf}) {
    cfg.byz = {non_finite_attacker(1, adversary::ByzKind::kExtremeHigh, hi)};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      cfg.seed = seed;
      const auto rep = run(cfg);
      EXPECT_TRUE(rep.all_output) << hi << " seed " << seed;
      EXPECT_TRUE(rep.validity_ok) << hi << " seed " << seed;
      EXPECT_TRUE(rep.agreement_ok) << hi << " seed " << seed << " gap "
                                    << rep.worst_pair_gap;
    }
  }
}

harness::VectorRunConfig vector_non_finite_config(ProtocolKind protocol,
                                                  double hi,
                                                  std::uint64_t seed) {
  harness::VectorRunConfig cfg;
  cfg.params = {13, 1};
  cfg.protocol = protocol;
  cfg.dim = 3;
  cfg.fixed_rounds = 8;
  cfg.epsilon = 1e-2;
  cfg.seed = seed;
  Rng rng(seed);
  cfg.inputs = harness::random_vector_inputs(rng, 13, 3, -5.0, 5.0);
  cfg.byz = {non_finite_attacker(0, adversary::ByzKind::kExtremeHigh, hi)};
  return cfg;
}

TEST(NonFinite, VectorConvexExtremeNanOrInfStaysConvexValid) {
  for (const double hi : {kNan, kInf}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto rep = harness::run(
          vector_non_finite_config(ProtocolKind::kVectorConvex, hi, seed));
      EXPECT_TRUE(rep.all_output) << hi << " seed " << seed;
      EXPECT_TRUE(rep.convex_validity_ok) << hi << " seed " << seed;
      EXPECT_TRUE(rep.agreement_ok) << hi << " seed " << seed;
    }
  }
}

TEST(NonFinite, VectorConvexRbExtremeNanOrInfStaysConvexValid) {
  for (const double hi : {kNan, kInf}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto rep = harness::run(
          vector_non_finite_config(ProtocolKind::kVectorConvexRB, hi, seed));
      EXPECT_TRUE(rep.all_output) << hi << " seed " << seed;
      EXPECT_TRUE(rep.convex_validity_ok) << hi << " seed " << seed;
      EXPECT_TRUE(rep.agreement_ok) << hi << " seed " << seed;
    }
  }
}

TEST(NonFinite, VectorByzExtremeNanStaysBoxValid) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto rep = harness::run(
        vector_non_finite_config(ProtocolKind::kVectorByz, kNan, seed));
    EXPECT_TRUE(rep.all_output) << "seed " << seed;
    EXPECT_TRUE(rep.box_validity_ok) << "seed " << seed;
    EXPECT_TRUE(rep.agreement_ok) << "seed " << seed;
  }
}

}  // namespace
}  // namespace apxa
