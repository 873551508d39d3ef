// Bracha reliable broadcast: validity, agreement, totality, equivocation
// resistance, multi-instance multiplexing, and message complexity.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <set>

#include "core/codec.hpp"
#include "net/sim.hpp"
#include "rb/bracha.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::rb {
namespace {

/// Harness process: runs a BrachaHub, optionally broadcasting values at
/// start; records every delivery.
class RbParty final : public net::Process {
 public:
  RbParty(SystemParams params, std::map<std::uint32_t, double> to_broadcast)
      : to_broadcast_(std::move(to_broadcast)),
        hub_(params, [this](net::Context&, std::uint32_t inst, ProcessId origin,
                            double value) {
          delivered_[{inst, origin}] = value;
        }) {}

  void on_start(net::Context& ctx) override {
    for (const auto& [inst, v] : to_broadcast_) hub_.broadcast(ctx, inst, v);
  }

  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    hub_.handle(ctx, from, payload);
  }

  std::map<std::uint32_t, double> to_broadcast_;
  std::map<std::pair<std::uint32_t, ProcessId>, double> delivered_;
  BrachaHub hub_;
};

/// Equivocating byzantine sender: SEND(lo) to the first half, SEND(hi) to the
/// second half, then silence (no echoes for anyone).
class RbEquivocator final : public net::Process {
 public:
  void on_start(net::Context& ctx) override {
    const auto n = ctx.params().n;
    for (ProcessId to = 0; to < n; ++to) {
      if (to == ctx.self()) continue;
      const double v = to < n / 2 ? 0.0 : 1.0;
      ctx.send(to, core::encode_rb(core::RbMsg{core::MsgType::kRbSend, 0,
                                               ctx.self(), v}));
    }
  }
  void on_message(net::Context&, ProcessId, BytesView) override {}
};

struct Net {
  std::unique_ptr<net::SimNetwork> sim;
  std::vector<RbParty*> parties;
};

Net make_net(SystemParams p, const std::map<ProcessId, double>& broadcasters,
             std::uint64_t seed = 1) {
  Net out;
  out.sim = std::make_unique<net::SimNetwork>(
      p, std::make_unique<sched::RandomScheduler>(seed));
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, double> bc;
    if (const auto it = broadcasters.find(i); it != broadcasters.end()) {
      bc[0] = it->second;
    }
    auto party = std::make_unique<RbParty>(p, std::move(bc));
    out.parties.push_back(party.get());
    out.sim->add_process(std::move(party));
  }
  return out;
}

TEST(Bracha, ValidityFaultFree) {
  auto net = make_net({4, 1}, {{0, 7.5}});
  net.sim->start();
  net.sim->run();
  for (const auto* p : net.parties) {
    ASSERT_EQ(p->delivered_.size(), 1u);
    EXPECT_EQ(p->delivered_.at({0, 0}), 7.5);
  }
}

TEST(Bracha, AllBroadcastersDeliverEverywhere) {
  auto net = make_net({7, 2}, {{0, 1.0}, {3, 2.0}, {6, 3.0}});
  net.sim->start();
  net.sim->run();
  for (const auto* p : net.parties) {
    EXPECT_EQ(p->delivered_.size(), 3u);
    EXPECT_EQ(p->delivered_.at({0, 0}), 1.0);
    EXPECT_EQ(p->delivered_.at({0, 3}), 2.0);
    EXPECT_EQ(p->delivered_.at({0, 6}), 3.0);
  }
}

TEST(Bracha, MultiInstanceMultiplexing) {
  const SystemParams p{4, 1};
  Net out;
  out.sim = std::make_unique<net::SimNetwork>(
      p, std::make_unique<sched::RandomScheduler>(5));
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, double> bc;
    if (i == 2) bc = {{0, 10.0}, {1, 20.0}, {5, 50.0}};
    auto party = std::make_unique<RbParty>(p, std::move(bc));
    out.parties.push_back(party.get());
    out.sim->add_process(std::move(party));
  }
  out.sim->start();
  out.sim->run();
  for (const auto* q : out.parties) {
    EXPECT_EQ(q->delivered_.at({0, 2}), 10.0);
    EXPECT_EQ(q->delivered_.at({1, 2}), 20.0);
    EXPECT_EQ(q->delivered_.at({5, 2}), 50.0);
  }
}

TEST(Bracha, TotalityUnderCrash) {
  // The origin crashes mid-SEND-multicast after reaching only 2 receivers;
  // if any correct party delivers, all must.  (With 2/3 correct receivers
  // echoing, delivery goes through here.)
  auto net = make_net({4, 1}, {{0, 9.0}});
  net.sim->crash_after_sends(0, 2);  // SENDs to parties 1 and 2 only
  net.sim->start();
  net.sim->run();
  std::size_t delivered = 0;
  for (ProcessId i = 1; i < 4; ++i) {
    if (net.parties[i]->delivered_.contains({0, 0})) ++delivered;
  }
  // Totality: all-or-nothing among the 3 correct parties.
  EXPECT_TRUE(delivered == 0 || delivered == 3) << delivered << " delivered";
}

TEST(Bracha, NoDeliveryWithoutQuorum) {
  // Origin reaches only 1 receiver before crashing: 2t+1 = 3 READYs can
  // never accumulate from a single echo in a 4-party system... the correct
  // parties must not deliver a value nobody can confirm.
  auto net = make_net({4, 1}, {{0, 9.0}});
  net.sim->crash_after_sends(0, 1);
  net.sim->start();
  net.sim->run();
  for (ProcessId i = 1; i < 4; ++i) {
    EXPECT_TRUE(net.parties[i]->delivered_.empty());
  }
}

TEST(Bracha, EquivocationNeverSplitsDelivery) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const SystemParams p{4, 1};
    net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(seed));
    std::vector<RbParty*> parties;
    sim.add_process(std::make_unique<RbEquivocator>());
    sim.mark_byzantine(0);
    for (ProcessId i = 1; i < 4; ++i) {
      auto party = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
      parties.push_back(party.get());
      sim.add_process(std::move(party));
    }
    sim.start();
    sim.run();
    // Agreement: at most one distinct value delivered across correct parties.
    std::set<double> values;
    for (const auto* q : parties) {
      for (const auto& [key, v] : q->delivered_) values.insert(v);
    }
    EXPECT_LE(values.size(), 1u) << "seed " << seed;
  }
}

TEST(Bracha, MessageComplexityQuadratic) {
  const SystemParams p{7, 2};
  auto net = make_net(p, {{0, 1.0}});
  net.sim->start();
  net.sim->run();
  // SEND: n-1; ECHO: n per party... upper bound 3 multicasts per party.
  const auto sent = net.sim->metrics().messages_sent;
  EXPECT_LE(sent, 3u * 7u * 6u);
  EXPECT_GE(sent, 2u * 6u * 6u);  // at least echoes + readies from correct
}

/// Hub-level test double: counts what the hub sends, never delivers.
class CountingContext final : public net::Context {
 public:
  explicit CountingContext(SystemParams p) : params_(p) {}
  void send(ProcessId, net::Payload) override { ++sends; }
  void multicast(net::Payload) override { ++multicasts; }
  [[nodiscard]] ProcessId self() const override { return 0; }
  [[nodiscard]] SystemParams params() const override { return params_; }
  int sends = 0, multicasts = 0;

 private:
  SystemParams params_;
};

Bytes scalar_vote(core::MsgType type, double v) {
  return core::encode_rb(core::RbMsg{type, 0, /*origin=*/2, v});
}

TEST(Bracha, OneEchoVotePerVoterPerSlot) {
  // A byzantine voter that echoes value A and later value B must count for A
  // only: otherwise flip-flopped votes (and vote floods of fresh forged
  // values) both grow unbounded per-slot state and let one voter contribute
  // to two different quorums.  Here echoes for B reach the n - t = 3 count
  // only if voters 1 and 2's second votes are (incorrectly) honored — the
  // hub must stay silent instead of multicasting READY(B).
  CountingContext ctx({4, 1});
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const double&) { ++deliveries; });
  auto echo = [](ProcessId, double v) {
    return core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, 0, 2, v});
  };
  hub.handle(ctx, 1, echo(1, 1.0));  // A from 1
  hub.handle(ctx, 2, echo(2, 1.0));  // A from 2: A has 2 < 3 votes
  hub.handle(ctx, 1, echo(1, 2.0));  // flip to B — must be ignored
  hub.handle(ctx, 2, echo(2, 2.0));  // flip to B — must be ignored
  hub.handle(ctx, 3, echo(3, 2.0));  // B's only legitimate vote
  EXPECT_EQ(ctx.multicasts, 0) << "a flip-flopped quorum sent READY";
  EXPECT_EQ(deliveries, 0);
}

TEST(Bracha, NanEchoDoesNotPoolOtherValues) {
  // Under an ordered map a NaN key compares "equivalent" to every value, so
  // ECHO(NaN), ECHO(1.0) and ECHO(2.0) once counted as three votes for one
  // value and reached the n - t = 3 quorum.  Three voters, three distinct
  // wire values: no quorum, no READY.
  CountingContext ctx({4, 1});
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const double&) { ++deliveries; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  hub.handle(ctx, 3, scalar_vote(core::MsgType::kRbEcho, nan));
  hub.handle(ctx, 1, scalar_vote(core::MsgType::kRbEcho, 1.0));
  hub.handle(ctx, 2, scalar_vote(core::MsgType::kRbEcho, 2.0));
  EXPECT_EQ(ctx.multicasts, 0) << "a NaN-pooled ECHO quorum sent READY";
  EXPECT_EQ(deliveries, 0);
}

TEST(Bracha, NanReadyDoesNotPoolOtherValues) {
  // READY(NaN) pooled with one honest READY(1.0) reached t + 1, the hub
  // joined with its own READY(1.0) and so reached 2t + 1 and delivered 1.0
  // on a single honest vote.  Distinct wire values must stay apart.
  CountingContext ctx({4, 1});
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const double&) { ++deliveries; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  hub.handle(ctx, 3, scalar_vote(core::MsgType::kRbReady, nan));
  hub.handle(ctx, 1, scalar_vote(core::MsgType::kRbReady, 1.0));
  hub.handle(ctx, 2, scalar_vote(core::MsgType::kRbReady, 2.0));
  EXPECT_EQ(ctx.multicasts, 0) << "a NaN-pooled READY amplified";
  EXPECT_EQ(deliveries, 0) << "a NaN-pooled READY quorum delivered";
}

TEST(Bracha, BitwiseEqualVotesStillFormQuorums) {
  // Identity is the wire bit pattern: identical NaNs are one value (the
  // tally is an equivalence for every pattern), while 0.0 and -0.0 — equal
  // under operator== — are two.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    CountingContext ctx({4, 1});
    BrachaHub hub({4, 1}, [](net::Context&, std::uint32_t, ProcessId,
                             const double&) {});
    for (ProcessId v : {1u, 2u, 3u}) {
      hub.handle(ctx, v, scalar_vote(core::MsgType::kRbEcho, nan));
    }
    EXPECT_EQ(ctx.multicasts, 1) << "n - t identical ECHOs must send READY";
  }
  {
    CountingContext ctx({4, 1});
    BrachaHub hub({4, 1}, [](net::Context&, std::uint32_t, ProcessId,
                             const double&) {});
    hub.handle(ctx, 1, scalar_vote(core::MsgType::kRbEcho, 0.0));
    hub.handle(ctx, 2, scalar_vote(core::MsgType::kRbEcho, -0.0));
    hub.handle(ctx, 3, scalar_vote(core::MsgType::kRbEcho, 0.0));
    EXPECT_EQ(ctx.multicasts, 0);
  }
}

TEST(Bracha, VoterBitmapsSpanSeveralWords) {
  // n = 130 needs three 64-bit words per bitmap: votes from every word
  // count once each, repeats from any word are ignored, and the READY goes
  // out exactly at the n - t-th distinct ECHO voter.
  const SystemParams p{130, 43};
  CountingContext ctx(p);
  BrachaHub hub(p, [](net::Context&, std::uint32_t, ProcessId,
                      const double&) {});
  ProcessId voter = 1;
  for (; voter < p.quorum(); ++voter) {
    hub.handle(ctx, voter, scalar_vote(core::MsgType::kRbEcho, 4.0));
    hub.handle(ctx, voter, scalar_vote(core::MsgType::kRbEcho, 4.0));
  }
  EXPECT_EQ(ctx.multicasts, 0) << "n - t - 1 distinct voters";
  hub.handle(ctx, voter, scalar_vote(core::MsgType::kRbEcho, 4.0));
  EXPECT_EQ(ctx.multicasts, 1) << "the n - t-th distinct voter";
}

TEST(Bracha, OutOfRangeOriginDiscardedNotFatal) {
  // A forged message naming origin >= n is byzantine garbage; the hub must
  // consume and drop it, not throw out of an honest party's message loop.
  class NoopContext final : public net::Context {
   public:
    void send(ProcessId, net::Payload) override { FAIL() << "unexpected send"; }
    void multicast(net::Payload) override { FAIL() << "unexpected multicast"; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
  } ctx;
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const double&) { ++deliveries; });
  const Bytes forged =
      core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, 0, /*origin=*/9, 1.0});
  EXPECT_TRUE(hub.handle(ctx, 1, forged));  // consumed: it IS an RB message
  EXPECT_EQ(hub.live_slots(), 0u);          // ...but created no state
  // Same for a well-formed vote from a sender id >= n: it has no voter bit.
  const Bytes stray =
      core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, 0, /*origin=*/1, 1.0});
  EXPECT_TRUE(hub.handle(ctx, /*from=*/200, stray));
  EXPECT_EQ(hub.live_slots(), 0u);
  EXPECT_EQ(deliveries, 0);
}

TEST(Bracha, ForgedHugeInstanceCostsOneBlock) {
  // Slots live in one block of n per instance, created on first use: an
  // instance number near 2^32 must cost one block, not state proportional
  // to the number.
  const SystemParams p{4, 1};
  CountingContext ctx(p);
  BrachaHub hub(p, [](net::Context&, std::uint32_t, ProcessId, const double&) {});
  const std::uint32_t huge = std::numeric_limits<std::uint32_t>::max();
  EXPECT_TRUE(hub.handle(
      ctx, 1, core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, huge, 2, 1.0})));
  EXPECT_EQ(hub.live_slots(), p.n);
  EXPECT_TRUE(hub.handle(
      ctx, 3, core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, huge, 1, 1.0})));
  EXPECT_EQ(hub.live_slots(), p.n);
  EXPECT_TRUE(hub.handle(
      ctx, 3, core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, 0, 1, 1.0})));
  EXPECT_EQ(hub.live_slots(), 2 * p.n);
}

TEST(Bracha, SlotSurvivesReentrantBroadcasts) {
  // The delivery callback can run inside a nested add_ready (the hub's own
  // READY), and the outer add_ready reads its slot again after it returns.  Broadcasting under many fresh instances
  // from the callback creates blocks (and grows the block map) meanwhile;
  // the slot must stay put and deliver exactly once.
  const SystemParams p{4, 1};
  CountingContext ctx(p);
  int deliveries = 0;
  BrachaHub* self = nullptr;
  BrachaHub hub(p, [&](net::Context& c, std::uint32_t inst, ProcessId,
                       const double&) {
    ++deliveries;
    if (inst != 0) return;
    for (std::uint32_t i = 1; i <= 200; ++i) self->broadcast(c, i, 0.5);
  });
  self = &hub;
  // READYs from 1 and 3 reach t + 1 = 2: the hub joins with its own READY,
  // which is the 2t + 1 = 3rd and delivers inside the outer add_ready.
  hub.handle(ctx, 2, scalar_vote(core::MsgType::kRbSend, 7.0));
  hub.handle(ctx, 1, scalar_vote(core::MsgType::kRbReady, 7.0));
  hub.handle(ctx, 3, scalar_vote(core::MsgType::kRbReady, 7.0));
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(hub.live_slots(), 201 * p.n);
  // A late READY for the delivered slot changes nothing.
  hub.handle(ctx, 2, scalar_vote(core::MsgType::kRbReady, 7.0));
  EXPECT_EQ(deliveries, 1);
}

TEST(Bracha, RequiresNGreaterThan3T) {
  const SystemParams bad{6, 2};
  EXPECT_THROW(BrachaHub(bad, [](net::Context&, std::uint32_t, ProcessId, double) {}),
               std::invalid_argument);
}

// --- vector hub (rb::VecBrachaHub, the equalized-collect transport) ---------

/// Vector analogue of RbParty: broadcasts R^d points, records deliveries.
class VecRbParty final : public net::Process {
 public:
  VecRbParty(SystemParams params, std::map<std::uint32_t, std::vector<double>> bc)
      : to_broadcast_(std::move(bc)),
        hub_(params, [this](net::Context&, std::uint32_t inst, ProcessId origin,
                            const std::vector<double>& value) {
          delivered_[{inst, origin}].push_back(value);
        }) {}

  void on_start(net::Context& ctx) override {
    for (const auto& [inst, v] : to_broadcast_) hub_.broadcast(ctx, inst, v);
  }
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    hub_.handle(ctx, from, payload);
  }

  std::map<std::uint32_t, std::vector<double>> to_broadcast_;
  /// All deliveries per (instance, origin) — uniqueness says size <= 1.
  std::map<std::pair<std::uint32_t, ProcessId>, std::vector<std::vector<double>>>
      delivered_;
  VecBrachaHub hub_;
};

TEST(VecBracha, ValidityFaultFree) {
  const SystemParams p{4, 1};
  net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(3));
  std::vector<VecRbParty*> parties;
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, std::vector<double>> bc;
    if (i == 0) bc[0] = {1.5, -2.5, 3.5};
    auto party = std::make_unique<VecRbParty>(p, std::move(bc));
    parties.push_back(party.get());
    sim.add_process(std::move(party));
  }
  sim.start();
  sim.run();
  for (const auto* q : parties) {
    ASSERT_EQ(q->delivered_.size(), 1u);
    const auto& vs = q->delivered_.at({0, 0});
    ASSERT_EQ(vs.size(), 1u);  // uniqueness: exactly one delivery
    EXPECT_EQ(vs[0], (std::vector<double>{1.5, -2.5, 3.5}));
  }
}

TEST(VecBracha, EquivocationDeliversAtMostOneValuePerOrigin) {
  // A byzantine origin SENDs a different vector to every receiver.  Per
  // party: at most one delivery for (instance, origin).  Across parties:
  // at most one distinct value delivered anywhere (agreement).
  class VecEquivocator final : public net::Process {
   public:
    void on_start(net::Context& ctx) override {
      for (ProcessId to = 0; to < ctx.params().n; ++to) {
        if (to == ctx.self()) continue;
        const std::vector<double> v{static_cast<double>(to), -1.0};
        ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                         core::MsgType::kRbVecSend, 0, ctx.self(), v}));
      }
    }
    void on_message(net::Context&, ProcessId, BytesView) override {}
  };

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const SystemParams p{4, 1};
    net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(seed));
    std::vector<VecRbParty*> parties;
    sim.add_process(std::make_unique<VecEquivocator>());
    sim.mark_byzantine(0);
    for (ProcessId i = 1; i < 4; ++i) {
      auto party = std::make_unique<VecRbParty>(
          p, std::map<std::uint32_t, std::vector<double>>{});
      parties.push_back(party.get());
      sim.add_process(std::move(party));
    }
    sim.start();
    sim.run();
    std::set<std::vector<double>> values;
    for (const auto* q : parties) {
      for (const auto& [key, vs] : q->delivered_) {
        EXPECT_LE(vs.size(), 1u) << "seed " << seed << ": double delivery";
        for (const auto& v : vs) values.insert(v);
      }
    }
    EXPECT_LE(values.size(), 1u) << "seed " << seed << ": delivery split";
  }
}

Bytes vector_vote(core::MsgType type, std::vector<double> v) {
  return core::encode_rb_vec(core::RbVecMsg{type, 0, /*origin=*/2, std::move(v)});
}

TEST(VecBracha, NanEchoDoesNotPoolOtherValues) {
  // The lexicographic vector compare inherits the NaN problem: a NaN first
  // coordinate makes {NaN, 5}, {1, 5} and {2, 5} mutually "equivalent".
  CountingContext ctx({4, 1});
  int deliveries = 0;
  VecBrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                               const std::vector<double>&) { ++deliveries; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  hub.handle(ctx, 3, vector_vote(core::MsgType::kRbVecEcho, {nan, 5.0}));
  hub.handle(ctx, 1, vector_vote(core::MsgType::kRbVecEcho, {1.0, 5.0}));
  hub.handle(ctx, 2, vector_vote(core::MsgType::kRbVecEcho, {2.0, 5.0}));
  EXPECT_EQ(ctx.multicasts, 0) << "a NaN-pooled ECHO quorum sent READY";
  EXPECT_EQ(deliveries, 0);
}

TEST(VecBracha, NanReadyDoesNotPoolOtherValues) {
  CountingContext ctx({4, 1});
  int deliveries = 0;
  VecBrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                               const std::vector<double>&) { ++deliveries; });
  const double nan = std::numeric_limits<double>::quiet_NaN();
  hub.handle(ctx, 3, vector_vote(core::MsgType::kRbVecReady, {nan, 5.0}));
  hub.handle(ctx, 1, vector_vote(core::MsgType::kRbVecReady, {1.0, 5.0}));
  hub.handle(ctx, 2, vector_vote(core::MsgType::kRbVecReady, {2.0, 5.0}));
  EXPECT_EQ(ctx.multicasts, 0) << "a NaN-pooled READY amplified";
  EXPECT_EQ(deliveries, 0) << "a NaN-pooled READY quorum delivered";
}

TEST(VecBracha, VotesOfDifferentLengthsAreDistinct) {
  // A prefix is not the same value: {1} and {1, 0} never share a tally.
  CountingContext ctx({4, 1});
  VecBrachaHub hub({4, 1}, [](net::Context&, std::uint32_t, ProcessId,
                              const std::vector<double>&) {});
  hub.handle(ctx, 1, vector_vote(core::MsgType::kRbVecEcho, {1.0}));
  hub.handle(ctx, 2, vector_vote(core::MsgType::kRbVecEcho, {1.0, 0.0}));
  hub.handle(ctx, 3, vector_vote(core::MsgType::kRbVecEcho, {1.0}));
  EXPECT_EQ(ctx.multicasts, 0);
}

TEST(VecBracha, ScalarAndVectorHubsIgnoreEachOthersWire) {
  // Tag ranges are disjoint: a scalar hub must not consume RBVEC traffic and
  // vice versa — the two can safely coexist in one process.
  int calls = 0;
  BrachaHub scalar({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                               const double&) { ++calls; });
  VecBrachaHub vec({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                               const std::vector<double>&) { ++calls; });
  const Bytes svec = core::encode_rb_vec(
      core::RbVecMsg{core::MsgType::kRbVecEcho, 0, 1, {1.0, 2.0}});
  const Bytes sscalar =
      core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, 0, 1, 1.0});
  // Rejection happens at decode, before any send reaches the context.
  class NoopContext final : public net::Context {
   public:
    void send(ProcessId, net::Payload) override { FAIL() << "unexpected send"; }
    void multicast(net::Payload) override { FAIL() << "unexpected multicast"; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
  } ctx;
  EXPECT_FALSE(scalar.handle(ctx, 1, svec));
  EXPECT_FALSE(vec.handle(ctx, 1, sscalar));
  EXPECT_EQ(calls, 0);
}

TEST(Bracha, ForgedSendIgnored) {
  // A SEND claiming origin 0 but arriving from party 1 must not trigger
  // echoes (authenticated channels).
  class Forger final : public net::Process {
   public:
    void on_start(net::Context& ctx) override {
      for (ProcessId to = 0; to < ctx.params().n; ++to) {
        if (to == ctx.self()) continue;
        ctx.send(to, core::encode_rb(core::RbMsg{core::MsgType::kRbSend, 0,
                                                 /*origin=*/0, 666.0}));
      }
    }
    void on_message(net::Context&, ProcessId, BytesView) override {}
  };

  const SystemParams p{4, 1};
  net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(2));
  std::vector<RbParty*> parties;
  auto p0 = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
  parties.push_back(p0.get());
  sim.add_process(std::move(p0));
  sim.add_process(std::make_unique<Forger>());
  sim.mark_byzantine(1);
  for (ProcessId i = 2; i < 4; ++i) {
    auto party = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
    parties.push_back(party.get());
    sim.add_process(std::move(party));
  }
  sim.start();
  sim.run();
  for (const auto* q : parties) EXPECT_TRUE(q->delivered_.empty());
}

}  // namespace
}  // namespace apxa::rb
