// Simulator semantics: determinism, delivery bounds, crash injection,
// metrics accounting, liveness guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "exec/transport_backend.hpp"
#include "harness/build.hpp"
#include "net/envelope.hpp"
#include "net/sim.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::net {
namespace {

Bytes tiny_payload(std::uint8_t b) {
  ByteWriter w;
  w.put_u8(b);
  return std::move(w).take();
}

/// Echo process: multicasts one message at start; counts deliveries; outputs
/// once it has heard from everyone else.
class EchoProcess final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.multicast(tiny_payload(1)); }

  void on_message(Context& ctx, ProcessId from, BytesView payload) override {
    (void)from;
    (void)payload;
    ++heard_;
    if (heard_ >= ctx.params().n - 1) out_ = static_cast<double>(heard_);
  }

  [[nodiscard]] std::optional<double> output() const override { return out_; }

  std::uint32_t heard_ = 0;
  std::optional<double> out_;
};

/// Held by pointer: a network is not movable (its Outbox wire points at it).
std::unique_ptr<SimNetwork> make_echo_net(SystemParams p, std::uint64_t seed = 1) {
  auto net = std::make_unique<SimNetwork>(p, std::make_unique<sched::RandomScheduler>(seed));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net->add_process(std::make_unique<EchoProcess>());
  }
  return net;
}

TEST(SimNetwork, AllToAllDelivery) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.start();
  EXPECT_EQ(net.run(), RunStatus::kQueueDrained);
  EXPECT_TRUE(net.inbox().all_correct_output());
  EXPECT_EQ(net.metrics().messages_sent, 4u * 3u);
  EXPECT_EQ(net.metrics().messages_delivered, 4u * 3u);
}

TEST(SimNetwork, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    const auto net_owner = make_echo_net({6, 1}, seed);
    SimNetwork& net = *net_owner;
    net.start();
    net.run();
    return net.now();
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(SimNetwork, DelaysRespectDelta) {
  // With all messages sent at time 0, everything arrives by Delta = 1.
  const auto net_owner = make_echo_net({5, 1});
  SimNetwork& net = *net_owner;
  net.start();
  net.run();
  EXPECT_LE(net.now(), 1.0);
  EXPECT_GT(net.now(), 0.0);
}

TEST(SimNetwork, CrashAtStartupSilencesParty) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.crash_after_sends(0, 0);
  net.start();
  net.run();
  EXPECT_FALSE(net.inbox().is_correct(0));  // crashed: never marked byzantine
  // The three live parties sent 3 messages each.
  EXPECT_EQ(net.metrics().messages_sent, 9u);
  // Correct parties heard from 2 others only -> no output (they wait for 3).
  EXPECT_FALSE(net.inbox().all_correct_output());
}

TEST(SimNetwork, PartialMulticastCrash) {
  const auto net_owner = make_echo_net({5, 1});
  SimNetwork& net = *net_owner;
  // Party 0 crashes after 2 sends of its 4-message multicast.
  net.crash_after_sends(0, 2);
  net.start();
  net.run();
  EXPECT_FALSE(net.inbox().is_correct(0));  // crashed: never marked byzantine
  EXPECT_EQ(net.metrics().sent_by[0], 2u);
}

TEST(SimNetwork, MulticastOrderControlsSurvivors) {
  const auto net_owner = make_echo_net({5, 1});
  SimNetwork& net = *net_owner;
  net.set_multicast_order(0, {3, 4, 1, 2});
  net.crash_after_sends(0, 2);  // only 3 and 4 get party 0's message
  net.start();
  net.run();
  const auto& p3 = dynamic_cast<const EchoProcess&>(net.inbox().process(3));
  const auto& p1 = dynamic_cast<const EchoProcess&>(net.inbox().process(1));
  EXPECT_EQ(p3.heard_, 4);  // everyone including 0
  EXPECT_EQ(p1.heard_, 3);  // missed 0
}

TEST(SimNetwork, CrashedReceiverDropsDeliveries) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.crash_at_time(2, 0.0);
  net.start();
  net.run();
  const auto& p2 = dynamic_cast<const EchoProcess&>(net.inbox().process(2));
  EXPECT_EQ(p2.heard_, 0);
}

TEST(SimNetwork, RunUntilPredicate) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.start();
  const auto st = net.run_until(
      [&net]() { return net.metrics().messages_delivered >= 3; });
  EXPECT_EQ(st, RunStatus::kPredicateSatisfied);
  EXPECT_GE(net.metrics().messages_delivered, 3u);
  EXPECT_LT(net.metrics().messages_delivered, 12u);
}

TEST(SimNetwork, BudgetExhaustionDetected) {
  /// Ping-pong forever between two parties.
  class PingPong final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(1, tiny_payload(0));
    }
    void on_message(Context& ctx, ProcessId from, BytesView) override {
      ctx.send(from, tiny_payload(0));
    }
  };
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<PingPong>());
  net.add_process(std::make_unique<PingPong>());
  net.start();
  EXPECT_EQ(net.run(1000), RunStatus::kBudgetExhausted);
}

TEST(SimNetwork, SelfSendRejected) {
  class SelfSender final : public Process {
   public:
    void on_start(Context& ctx) override { ctx.send(ctx.self(), Bytes{}); }
    void on_message(Context&, ProcessId, BytesView) override {}
  };
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<SelfSender>());
  net.add_process(std::make_unique<EchoProcess>());
  EXPECT_THROW(net.start(), std::invalid_argument);
}

TEST(SimNetwork, ConfigValidation) {
  EXPECT_THROW(SimNetwork({0, 0}, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(SimNetwork({3, 3}, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<EchoProcess>());
  EXPECT_THROW(net.start(), std::invalid_argument);  // missing processes
}

TEST(SimNetwork, ByzantineMarkExcludedFromCorrect) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.mark_byzantine(3);
  net.start();
  net.run();
  EXPECT_FALSE(net.inbox().is_correct(3));
  EXPECT_EQ(net.inbox().correct_outputs().size(), 3u);
}

TEST(SimNetwork, OutputTimeRecorded) {
  const auto net_owner = make_echo_net({4, 1});
  SimNetwork& net = *net_owner;
  net.start();
  net.run();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_GT(net.inbox().output_time(p), 0.0);
    EXPECT_LE(net.inbox().output_time(p), 1.0);
  }
}

TEST(SimNetwork, PayloadBytesAccounted) {
  const auto net_owner = make_echo_net({3, 1});
  SimNetwork& net = *net_owner;
  net.start();
  net.run();
  // 6 messages of 1 byte each.
  EXPECT_EQ(net.metrics().payload_bytes, 6u);
  EXPECT_EQ(net.metrics().payload_bits(), 48u);
}

// --- event order --------------------------------------------------------------

/// Scheduler for the event-order test.  Its delays mix heavy ties (a
/// constant 0.5, and 0 or negative delays that clamp to the 1e-9 floor)
/// with uniform random ones.  It replays the simulator's key of every event
/// it schedules: the k-th delay() call is the event with seq k, duplicates
/// included, due at send time + clamp_delay(delay).  On each delivery it
/// requires the simulator's clock to equal the due time of the earliest
/// pending copy of that message (a duplicate shares its message's seq) and
/// the (time, seq) keys to rise strictly.
class OrderCheckingScheduler final : public sched::Scheduler {
 public:
  using Key = std::pair<double, std::uint64_t>;

  explicit OrderCheckingScheduler(std::uint64_t seed) : rng_(seed) {}

  double delay(const Message& m) override {
    double d = 0.5;
    switch (rng_.next_below(4)) {
      case 0: break;
      case 1: d = 0.0; break;
      case 2: d = -2.0; break;
      default: d = rng_.next_double(); break;
    }
    copies_[m.seq].push_back({m.send_time + sched::clamp_delay(d), scheduled_++});
    max_in_flight_ = std::max(max_in_flight_, scheduled_ - delivered_);
    return d;
  }

  void on_deliver(const Message& m) override {
    auto& copies = copies_[m.seq];
    ASSERT_FALSE(copies.empty()) << "delivery of an unscheduled copy";
    const auto first = std::min_element(copies.begin(), copies.end());
    const Key key = *first;
    copies.erase(first);
    EXPECT_EQ(net->now(), key.first);
    if (delivered_ > 0) {
      EXPECT_LT(last_, key);
    }
    last_ = key;
    ++delivered_;
  }

  const SimNetwork* net = nullptr;
  std::uint64_t scheduled_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t max_in_flight_ = 0;

 private:
  Rng rng_;
  std::map<std::uint64_t, std::vector<Key>> copies_;  // message seq -> due keys
  Key last_{};
};

/// Starts `tokens` tokens and forwards every token it receives, one hop
/// budget less, to a receiver chosen by the budget left.
class TokenRelay final : public Process {
 public:
  TokenRelay(std::uint32_t tokens, std::uint32_t hops) : tokens_(tokens), hops_(hops) {}

  void on_start(Context& ctx) override {
    for (std::uint32_t i = 0; i < tokens_; ++i) forward(ctx, hops_, i);
  }

  void on_message(Context& ctx, ProcessId, BytesView payload) override {
    ByteReader r(payload);
    r.get_u8();
    const auto left = static_cast<std::uint32_t>(r.get_varint());
    if (left > 0) forward(ctx, left - 1, left);
  }

 private:
  static void forward(Context& ctx, std::uint32_t left, std::uint32_t salt) {
    const auto n = ctx.params().n;
    ByteWriter w(1 + varint_size(left));
    w.put_u8(0xF0);
    w.put_varint(left);
    ctx.send((ctx.self() + 1 + salt % (n - 1)) % n, std::move(w).take());
  }

  std::uint32_t tokens_;
  std::uint32_t hops_;
};

TEST(SimEventOrder, DeliversInStrictlyIncreasingTimeSeqOrder) {
  const SystemParams p{8, 2};
  auto sched_owner = std::make_unique<OrderCheckingScheduler>(5);
  OrderCheckingScheduler& sched = *sched_owner;
  SimNetwork net(p, std::move(sched_owner));
  sched.net = &net;
  for (ProcessId q = 0; q < p.n; ++q) {
    net.add_process(std::make_unique<TokenRelay>(/*tokens=*/640, /*hops=*/4));
  }
  net.enable_duplication(0.25, 9);
  net.start();
  EXPECT_EQ(net.run(), RunStatus::kQueueDrained);
  EXPECT_EQ(sched.delivered_, sched.scheduled_);
  EXPECT_GE(sched.max_in_flight_, 4096u);
  EXPECT_GT(net.metrics().messages_delivered, net.metrics().messages_sent);
}

// --- send batching & logical-message accounting ------------------------------

/// Multiplexing stand-in: multicasts one enveloped frame per "instance" at
/// start, back to back — exactly the burst a session router produces.
class BurstProcess final : public Process {
 public:
  explicit BurstProcess(std::uint32_t instances) : instances_(instances) {}

  void on_start(Context& ctx) override {
    for (std::uint32_t i = 0; i < instances_; ++i) {
      ctx.multicast(encode_envelope(i, tiny_payload(1)));
    }
  }

  void on_message(Context&, ProcessId, BytesView payload) override {
    // The network hands over logical frames, not packets: count only
    // well-formed single envelopes (a junk forgery arrives as one opaque
    // delivery and is ignored, never split or crashed on).
    if (decode_envelope(payload).has_value()) ++heard_;
  }

  std::uint32_t instances_;
  std::uint32_t heard_ = 0;
};

TEST(SimBatching, PacksBurstsAndCountsLogicalMessages) {
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<BurstProcess>(kMaxBatchFrames));
  }
  net.enable_batching(kMaxBatchFrames);
  net.start();
  net.run();
  // Logical counts are batching-invariant: n senders x 8 frames x (n-1).
  const std::uint64_t logical = 3u * kMaxBatchFrames * 2u;
  EXPECT_EQ(net.metrics().messages_sent, logical);
  EXPECT_EQ(net.metrics().messages_delivered, logical);
  // Each sender's 8-frame burst to each destination packed into ONE packet.
  EXPECT_EQ(net.metrics().packets_sent, 3u * 2u);
  EXPECT_EQ(net.metrics().msgs_per_packet(),
            static_cast<double>(kMaxBatchFrames));
  // Per-instance attribution survives the batch framing.
  ASSERT_EQ(net.metrics().sent_by_instance.size(), kMaxBatchFrames);
  for (std::uint32_t i = 0; i < kMaxBatchFrames; ++i) {
    EXPECT_EQ(net.metrics().sent_by_instance[i], 3u * 2u);
  }
  // Every frame reached every peer.
  for (ProcessId q = 0; q < p.n; ++q) {
    EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.inbox().process(q)).heard_,
              kMaxBatchFrames * 2u);
  }
}

TEST(SimBatching, SingleFrameFlushesAsRawPacket) {
  // One frame in the buffer at flush time goes out unframed: a batched run
  // of single-message upcalls has the same wire bytes as an unbatched one.
  const auto unbatched_owner = make_echo_net({4, 1});
  SimNetwork& unbatched = *unbatched_owner;
  unbatched.start();
  unbatched.run();
  const auto batched_owner = make_echo_net({4, 1});
  SimNetwork& batched = *batched_owner;
  batched.enable_batching(8);
  batched.start();
  batched.run();
  EXPECT_EQ(batched.metrics().payload_bytes, unbatched.metrics().payload_bytes);
  EXPECT_EQ(batched.metrics().packets_sent, batched.metrics().messages_sent);
  EXPECT_EQ(batched.metrics().msgs_per_packet(), 1.0);
}

TEST(SimBatching, CrashBudgetCountsLogicalSendsNotPackets) {
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<BurstProcess>(4));
  }
  net.enable_batching(8);
  // Party 0's burst is 4 frames x 2 destinations = 8 logical sends, but with
  // batching it would be only 2 packets.  A budget of 3 must count FRAMES:
  // m0->1, m0->2, m1->1 go out, the 4th frame fires the crash.
  net.crash_after_sends(0, 3);
  net.start();
  net.run();
  EXPECT_FALSE(net.inbox().is_correct(0));  // crashed: never marked byzantine
  EXPECT_EQ(net.metrics().sent_by[0], 3u);
  EXPECT_EQ(net.metrics().messages_dropped, 5u);
  // The pre-crash buffered frames still flush: party 1 heard both of party
  // 0's frames addressed to it, party 2 heard one (plus the full burst of
  // the surviving peer).
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.inbox().process(1)).heard_, 2u + 4u);
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.inbox().process(2)).heard_, 1u + 4u);
}

TEST(SimBatching, ForgedBatchFrameBypassesPackingHarmlessly) {
  /// A byzantine sender emitting bytes that LOOK like a batch packet: the
  /// transport must not nest it into another batch, and honest receivers
  /// treat it as one junk delivery.
  class Forger final : public Process {
   public:
    void on_start(Context& ctx) override {
      Bytes junk{static_cast<std::byte>(kBatchTag), static_cast<std::byte>(7)};
      ctx.multicast(junk);
    }
    void on_message(Context&, ProcessId, BytesView) override {}
  };
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  net.add_process(std::make_unique<Forger>());
  net.add_process(std::make_unique<BurstProcess>(2));
  net.add_process(std::make_unique<BurstProcess>(2));
  net.mark_byzantine(0);
  net.enable_batching(8);
  net.start();
  net.run();
  // The forged frame went out as its own packet (never nested), and every
  // honest frame still arrived.
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.inbox().process(1)).heard_, 2u);
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.inbox().process(2)).heard_, 2u);
}

TEST(SimBatching, ValidatesUsage) {
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  EXPECT_THROW(net.enable_batching(0), std::invalid_argument);
  EXPECT_THROW(net.enable_batching(kMaxBatchFrames + 1), std::invalid_argument);
  net.add_process(std::make_unique<EchoProcess>());
  net.add_process(std::make_unique<EchoProcess>());
  net.start();
  EXPECT_THROW(net.enable_batching(4), std::invalid_argument);
}

// --- run_until_done's latched flags against the global conjunction --------

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.packets_retransmitted, b.packets_retransmitted);
  EXPECT_EQ(a.retransmit_bytes, b.retransmit_bytes);
  EXPECT_EQ(a.sent_by, b.sent_by);
  EXPECT_EQ(a.bytes_by, b.bytes_by);
  EXPECT_EQ(a.sent_by_tag, b.sent_by_tag);
  EXPECT_EQ(a.sent_by_round, b.sent_by_round);
  EXPECT_EQ(a.sent_by_instance, b.sent_by_instance);
  EXPECT_EQ(a.latency_by_tag, b.latency_by_tag);
}

TEST(SimDoneLatch, MatchesGlobalConjunction) {
  using harness::ProtocolKind;
  using harness::SchedKind;
  struct Kind {
    ProtocolKind protocol;
    SystemParams params;
  };
  const Kind kinds[] = {{ProtocolKind::kCrashRound, {7, 2}},
                        {ProtocolKind::kByzRound, {11, 2}},
                        {ProtocolKind::kWitness, {7, 2}}};
  const SchedKind scheds[] = {SchedKind::kRandom, SchedKind::kFifo,
                              SchedKind::kGreedySplit, SchedKind::kTargeted,
                              SchedKind::kClique};
  for (const Kind& kind : kinds) {
    for (const SchedKind sched : scheds) {
      for (const bool live : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "protocol " << static_cast<int>(kind.protocol) << " sched "
                     << static_cast<int>(sched) << (live ? " live" : " fixed"));
        harness::RunConfig cfg;
        cfg.params = kind.params;
        cfg.protocol = kind.protocol;
        cfg.sched = sched;
        cfg.seed = 7;
        cfg.fixed_rounds = 4;
        cfg.mode = live ? core::TerminationMode::kLive
                        : core::TerminationMode::kFixedRounds;
        cfg.inputs = std::vector<double>(kind.params.n);
        for (ProcessId p = 0; p < kind.params.n; ++p) {
          cfg.inputs[p] = static_cast<double>(p) / kind.params.n;
        }
        // One fault from the protocol's own model, plus a timed crash below.
        if (kind.protocol == ProtocolKind::kCrashRound) {
          cfg.crashes.push_back({1, 5, {}});
        } else {
          adversary::ByzSpec b;
          b.who = 1;
          b.kind = adversary::ByzKind::kEquivocate;
          cfg.byz.push_back(b);
        }
        const auto probe = harness::make_done_predicate(cfg);
        auto done_of = [&probe](const Process& proc) {
          return probe ? probe(proc) : proc.has_output();
        };

        exec::TransportBackend<SimNetwork> latched(cfg.params, harness::make_scheduler(cfg));
        exec::TransportBackend<SimNetwork> global(cfg.params, harness::make_scheduler(cfg));
        harness::stage(cfg, {}, latched);
        harness::stage(cfg, {}, global);
        SimNetwork& a = latched.network();
        SimNetwork& b = global.network();
        a.crash_at_time(3, 1.5);
        b.crash_at_time(3, 1.5);
        a.start();
        b.start();

        std::uint64_t probes = 0;
        const RunStatus sa = a.run_until_done(
            [&](const Process& proc) {
              ++probes;
              return done_of(proc);
            });
        const RunStatus sb = b.run_until([&] {
          for (ProcessId p = 0; p < cfg.params.n; ++p) {
            if (b.inbox().is_correct(p) && !done_of(b.inbox().process(p))) return false;
          }
          return true;
        });

        EXPECT_EQ(sa, sb);
        EXPECT_EQ(a.now(), b.now());
        EXPECT_EQ(a.inbox().correct_outputs(), b.inbox().correct_outputs());
        for (ProcessId p = 0; p < cfg.params.n; ++p) {
          EXPECT_EQ(a.inbox().is_correct(p), b.inbox().is_correct(p));
          EXPECT_EQ(a.inbox().output_time(p), b.inbox().output_time(p));
        }
        expect_same_metrics(a.metrics(), b.metrics());
        EXPECT_GT(a.metrics().messages_delivered, 0u);
        EXPECT_LE(probes, cfg.params.n + a.metrics().messages_delivered);
      }
    }
  }
}

}  // namespace
}  // namespace apxa::net
