// net::Outbox, the send path every transport shares, and Metrics::merge,
// which folds its per-party metrics slots into one report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/codec.hpp"
#include "net/envelope.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "obs/trace.hpp"

namespace apxa::net {
namespace {

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

/// Packets of every shape the accounting distinguishes: bare frames of
/// several tags and rounds, envelopes of several instances, batches, and
/// forgeries that count as unknown.
std::vector<Bytes> stream_packets() {
  std::vector<Bytes> out;
  for (Round r : {0u, 1u, 7u, 300u, 5000u}) {
    out.push_back(core::encode_round(core::RoundMsg{r, 0.5, 0}));
    out.push_back(core::encode_rb(core::RbMsg{core::MsgType::kRbEcho, r, 2, 1.0}));
  }
  const Bytes inner = core::encode_done(core::DoneMsg{3, 2.0});
  for (std::uint32_t inst : {0u, 2u, 40u, 9000u}) {
    out.push_back(encode_envelope(inst, inner));
  }
  const std::vector<Bytes> frames{encode_envelope(5, inner), inner,
                                  encode_envelope(77, inner)};
  out.push_back(encode_batch(frames));
  out.push_back(Bytes{std::byte{kBatchTag}, std::byte{3}});  // forged batch
  out.push_back(Bytes{std::byte{0xF0}, std::byte{1}});       // unknown tag
  return out;
}

// One recorded stream of sends, deliveries, drops and retransmits, accounted
// once into a single Metrics and once into per-party slots (sends, drops and
// retransmits to the sender, deliveries to the receiver), then merged.
TEST(MetricsMerge, SlotsMergeToOneMetrics) {
  constexpr std::uint32_t kN = 6;
  const auto packets = stream_packets();
  Metrics whole;
  whole.reset(kN);
  std::vector<Metrics> slots(kN);
  for (Metrics& s : slots) s.reset(kN);

  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Bytes& p = packets[rng.next_below(packets.size())];
    const auto from = static_cast<ProcessId>(rng.next_below(kN));
    const auto to = static_cast<ProcessId>((from + 1 + rng.next_below(kN - 1)) % kN);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        whole.note_send(from, p);
        slots[from].note_send(from, p);
        const double latency = rng.next_double(0.0, 1.0);
        whole.note_delivery(p, latency);
        slots[to].note_delivery(p, latency);
        ++whole.messages_delivered;
        ++slots[to].messages_delivered;
        break;
      }
      case 2:
        ++whole.messages_dropped;
        ++slots[from].messages_dropped;
        break;
      default:
        whole.note_retransmit(1, p.size() + 9);
        slots[from].note_retransmit(1, p.size() + 9);
        break;
    }
  }

  Metrics merged;
  merged.reset(kN);
  for (const Metrics& s : slots) merged.merge(s);
  expect_same_metrics(merged, whole);
  // The stream grew both tables, and not in every slot alike.
  EXPECT_EQ(merged.sent_by_round.size(), 301u);
  EXPECT_EQ(merged.sent_by_instance.size(), 78u);
}

TEST(MetricsMerge, LongerTableWinsAndEmptyIsIdentity) {
  Metrics a;
  a.reset(3);
  a.note_send(0, core::encode_round(core::RoundMsg{2, 0.0, 0}));
  Metrics b;
  b.reset(3);
  b.note_send(1, core::encode_round(core::RoundMsg{9, 0.0, 0}));
  b.note_send(1, encode_envelope(4, core::encode_done(core::DoneMsg{0, 1.0})));

  Metrics ab = a;
  ab.merge(b);
  Metrics ba = b;
  ba.merge(a);
  expect_same_metrics(ab, ba);
  ASSERT_EQ(ab.sent_by_round.size(), 10u);
  EXPECT_EQ(ab.sent_by_round[2], 1u);
  EXPECT_EQ(ab.sent_by_round[9], 1u);
  ASSERT_EQ(ab.sent_by_instance.size(), 5u);
  EXPECT_EQ(ab.sent_by_instance[4], 1u);

  Metrics empty;
  empty.reset(3);
  Metrics same = ab;
  same.merge(empty);
  expect_same_metrics(same, ab);
}

/// An Outbox whose wire records every packet.
struct Recorder {
  struct Sent {
    ProcessId from;
    ProcessId to;
    Payload packet;
  };
  std::vector<Sent> sent;
  Outbox out;

  explicit Recorder(std::uint32_t n)
      : out({n, (n - 1) / 3}, [this](ProcessId from, ProcessId to, Payload packet) {
          sent.push_back(Sent{from, to, std::move(packet)});
        }) {}
};

Bytes frame(Round r) { return core::encode_round(core::RoundMsg{r, 1.0, 0}); }

TEST(Outbox, MulticastSharesOneBuffer) {
  Recorder rec(5);
  const Bytes f = frame(3);
  rec.out.multicast(2, Payload(f));
  ASSERT_EQ(rec.sent.size(), 4u);
  std::vector<ProcessId> to;
  for (const auto& s : rec.sent) {
    EXPECT_EQ(s.from, 2u);
    to.push_back(s.to);
    EXPECT_EQ(s.packet.view().data(), rec.sent[0].packet.view().data());
    EXPECT_TRUE(std::equal(f.begin(), f.end(), s.packet.view().begin(),
                           s.packet.view().end()));
  }
  EXPECT_EQ(to, (std::vector<ProcessId>{0, 1, 3, 4}));
  const Metrics m = rec.out.metrics();
  EXPECT_EQ(m.messages_sent, 4u);
  EXPECT_EQ(m.sent_by[2], 4u);
  EXPECT_EQ(m.payload_bytes, 4 * f.size());
}

TEST(Outbox, CrashBudgetLandsMidMulticast) {
  Recorder rec(6);
  obs::TraceSink sink;
  const double clock = 2.5;
  rec.out.set_trace(&sink, &clock);
  rec.out.set_multicast_order(0, {5, 4, 3, 2, 1});
  rec.out.crash_after_sends(0, 2);
  rec.out.multicast(0, Payload(frame(0)));
  ASSERT_EQ(rec.sent.size(), 2u);
  EXPECT_EQ(rec.sent[0].to, 5u);
  EXPECT_EQ(rec.sent[1].to, 4u);
  EXPECT_TRUE(rec.out.crashed(0));
  const Metrics m = rec.out.metrics();
  EXPECT_EQ(m.messages_sent, 2u);
  EXPECT_EQ(m.messages_dropped, 3u);

  int crashes = 0;
  int drops = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    EXPECT_EQ(e.vtime, 2.5);
    if (e.kind == obs::EventKind::kCrash) {
      ++crashes;
      EXPECT_EQ(e.value, 2.0);
    }
    if (e.kind == obs::EventKind::kDrop) ++drops;
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(drops, 3);
}

TEST(Outbox, BudgetCrashesRightAfterItsLastSend) {
  Recorder rec(4);
  rec.out.crash_after_sends(1, 1);
  rec.out.send(1, 0, Payload(frame(0)));
  EXPECT_TRUE(rec.out.crashed(1));  // budget spent: crashed right after it
  rec.out.crash_after_sends(2, 0);
  EXPECT_TRUE(rec.out.crashed(2));  // a zero budget crashes at once
  rec.out.send(2, 0, Payload(frame(0)));
  EXPECT_EQ(rec.sent.size(), 1u);
  EXPECT_EQ(rec.out.metrics().messages_dropped, 1u);
}

TEST(Outbox, CrashListenerFiresOncePerParty) {
  Recorder rec(4);
  int calls = 0;
  rec.out.set_crash_listener([&calls] { ++calls; });
  rec.out.crash(1);
  rec.out.crash(1);
  EXPECT_EQ(calls, 1);
  rec.out.crash_after_sends(2, 1);  // the budget runs out mid-multicast
  rec.out.multicast(2, Payload(frame(0)));
  rec.out.multicast(2, Payload(frame(0)));
  EXPECT_EQ(calls, 2);
}

TEST(Outbox, BatchesFlushPerReceiverInIdOrder) {
  Recorder rec(4);
  rec.out.enable_batching(3);
  for (Round r = 0; r < 4; ++r) rec.out.send(0, 2, Payload(frame(r)));
  rec.out.send(0, 1, Payload(frame(9)));
  // The third frame to 2 filled its 3-frame buffer: one batch went out.
  ASSERT_EQ(rec.sent.size(), 1u);
  EXPECT_EQ(rec.sent[0].to, 2u);
  EXPECT_EQ(unpack_packet(rec.sent[0].packet).size(), 3u);

  rec.out.flush(0);
  ASSERT_EQ(rec.sent.size(), 3u);
  // Single buffered frames go out as themselves, receiver 1 before 2.
  EXPECT_EQ(rec.sent[1].to, 1u);
  EXPECT_FALSE(detail::is_batch(rec.sent[1].packet));
  EXPECT_EQ(rec.sent[2].to, 2u);
  EXPECT_FALSE(detail::is_batch(rec.sent[2].packet));
  rec.out.flush(0);
  EXPECT_EQ(rec.sent.size(), 3u);

  const Metrics m = rec.out.metrics();
  EXPECT_EQ(m.messages_sent, 5u);
  EXPECT_EQ(m.packets_sent, 3u);
}

TEST(Outbox, BufferedFramesFlushAfterACrash) {
  Recorder rec(4);
  rec.out.enable_batching(8);
  rec.out.crash_after_sends(0, 2);
  rec.out.multicast(0, Payload(frame(1)));  // two frames buffered, then the crash
  EXPECT_TRUE(rec.out.crashed(0));
  EXPECT_TRUE(rec.sent.empty());
  rec.out.flush(0);
  ASSERT_EQ(rec.sent.size(), 2u);
  EXPECT_EQ(rec.sent[0].to, 1u);
  EXPECT_EQ(rec.sent[1].to, 2u);
  EXPECT_EQ(rec.out.metrics().messages_dropped, 1u);
}

TEST(Outbox, ForgedBatchesAndEmptyFramesBypassTheBuffers) {
  Recorder rec(3);
  rec.out.enable_batching(8);
  rec.out.send(0, 1, Payload(Bytes{std::byte{kBatchTag}, std::byte{1}}));
  rec.out.send(0, 1, Payload());
  EXPECT_EQ(rec.sent.size(), 2u);
}

TEST(Outbox, EachPartyAccountsToItsOwnSlot) {
  Recorder rec(3);
  rec.out.multicast(1, Payload(frame(0)));
  rec.out.send(2, 0, Payload(frame(0)));
  EXPECT_EQ(rec.out.metrics_of(0).messages_sent, 0u);
  EXPECT_EQ(rec.out.metrics_of(1).messages_sent, 2u);
  EXPECT_EQ(rec.out.metrics_of(2).messages_sent, 1u);
  EXPECT_EQ(rec.out.metrics().messages_sent, 3u);
}

TEST(Outbox, SendsFromManyThreadsNeedNoLock) {
  // Each thread plays one party: it multicasts and accounts deliveries into
  // its own slot only, as the threaded transports do.  Under TSan this
  // checks that per-party slots, budgets and batch buffers do not race.
  constexpr std::uint32_t kN = 4;
  constexpr int kRounds = 500;
  Outbox out({kN, 1}, [](ProcessId, ProcessId, Payload) {});
  out.enable_batching(4);
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kN; ++p) {
    threads.emplace_back([&out, p] {
      for (int r = 0; r < kRounds; ++r) {
        out.multicast(p, Payload(frame(static_cast<Round>(r % 8))));
        ++out.metrics_of(p).messages_delivered;
        out.flush(p);
      }
    });
  }
  for (auto& t : threads) t.join();
  const Metrics m = out.metrics();
  EXPECT_EQ(m.messages_sent, std::uint64_t{kN} * kRounds * (kN - 1));
  EXPECT_EQ(m.messages_delivered, std::uint64_t{kN} * kRounds);
  EXPECT_EQ(m.packets_sent, m.messages_sent);  // flushed after every frame
}

}  // namespace
}  // namespace apxa::net
