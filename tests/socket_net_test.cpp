// netio: the perfect-link state machine, the deterministic fault shim, the
// UDP wrapper and the socket transport end to end.
//
// PeerLink tests drive the retransmit/dedup machinery with an explicit
// clock — no sockets, no sleeps — which is the payoff of keeping the link a
// pure state machine.  The SocketNetwork tests run real loopback datagrams
// (clean and under injected loss) and pin the PR 9 accounting contract:
// logical message counts are loss-invariant, retransmissions are physical
// overhead counted separately, and a failed verdict on this backend dumps
// per-party link state into the flight record.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/async_byz.hpp"
#include "core/async_crash.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "net/metrics.hpp"
#include "netio/fault.hpp"
#include "netio/link.hpp"
#include "netio/socket_net.hpp"
#include "netio/udp.hpp"
#include "obs/trace.hpp"

namespace apxa {
namespace {

using namespace std::chrono_literals;
using netio::Delivered;
using netio::FaultConfig;
using netio::FaultShim;
using netio::LinkConfig;
using netio::PeerLink;

PeerLink::TimePoint t0() { return PeerLink::TimePoint{} + 1h; }

Bytes payload_of(std::initializer_list<int> xs) {
  Bytes b;
  for (int x : xs) b.push_back(static_cast<std::byte>(x));
  return b;
}

using Packets = std::vector<Bytes>;

/// The packets of one delivered frame, copied out in order.
Packets packets_of(const Delivered& d) {
  Packets out;
  EXPECT_TRUE(netio::for_each_packet(d.packets, [&out](BytesView p) {
    out.emplace_back(p.begin(), p.end());
  }));
  return out;
}

/// Views of `packets`, as SocketNetwork hands a send queue to the link.
std::vector<BytesView> views_of(const Packets& packets) {
  return {packets.begin(), packets.end()};
}

// --- PeerLink: delivery, dedup, acks ----------------------------------------

TEST(PeerLink, RoundTripDeliversOnce) {
  PeerLink sender, receiver;
  const Bytes msg = payload_of({1, 2, 3});
  const Bytes dgram = sender.make_data(msg, t0());
  EXPECT_EQ(static_cast<std::uint8_t>(dgram[0]), netio::kDataTag);
  EXPECT_EQ(sender.unacked(), 1u);

  std::vector<Delivered> out;
  receiver.on_datagram(dgram, t0() + 1ms, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(packets_of(out[0]), Packets{msg});
  EXPECT_TRUE(receiver.acks_pending());
  EXPECT_EQ(receiver.last_seq_seen(), 1u);

  // The same datagram again (a retransmission whose ack was lost): no second
  // delivery, but the ack is re-queued so the sender can still clear it.
  out.clear();
  receiver.on_datagram(dgram, t0() + 2ms, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.stats().duplicates_dropped, 1u);
  EXPECT_TRUE(receiver.acks_pending());
}

TEST(PeerLink, PureAckClearsResendQueue) {
  PeerLink sender, receiver;
  std::vector<Delivered> out;
  receiver.on_datagram(sender.make_data(payload_of({7}), t0()), t0(), out);
  const auto ack = receiver.take_ack_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(static_cast<std::uint8_t>((*ack)[0]), netio::kAckTag);
  EXPECT_FALSE(receiver.acks_pending());

  out.clear();
  sender.on_datagram(*ack, t0() + 1ms, out);
  EXPECT_TRUE(out.empty());  // pure acks carry no payload
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.next_deadline(), PeerLink::TimePoint::max());
  EXPECT_EQ(sender.stats().acks_received, 1u);
}

TEST(PeerLink, AcksPiggybackOnReverseData) {
  PeerLink a, b;  // full-duplex pair: a -> b data, b -> a data carrying acks
  std::vector<Delivered> out;
  b.on_datagram(a.make_data(payload_of({1}), t0()), t0(), out);
  ASSERT_EQ(out.size(), 1u);
  out.clear();

  // b's next DATA frame consumes the pending ack as piggyback; receiving it
  // both delivers b's payload and clears a's resend queue — no pure ACK
  // datagram needed on a bidirectional link.
  const Bytes reverse = b.make_data(payload_of({2}), t0() + 1ms);
  EXPECT_FALSE(b.acks_pending());
  a.on_datagram(reverse, t0() + 2ms, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(packets_of(out[0]), Packets{payload_of({2})});
  EXPECT_EQ(a.unacked(), 0u);
}

TEST(PeerLink, OutOfOrderDeliversBothAndDedupsAcross) {
  PeerLink sender, receiver;
  const Bytes d1 = sender.make_data(payload_of({1}), t0());
  const Bytes d2 = sender.make_data(payload_of({2}), t0());
  std::vector<Delivered> out;
  receiver.on_datagram(d2, t0(), out);  // seq 2 first
  receiver.on_datagram(d1, t0(), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(packets_of(out[0]), Packets{payload_of({2})});
  EXPECT_EQ(packets_of(out[1]), Packets{payload_of({1})});
  // Both seqs are now at/below the contiguous frontier: replays of either
  // are duplicates.
  out.clear();
  receiver.on_datagram(d2, t0(), out);
  receiver.on_datagram(d1, t0(), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.stats().duplicates_dropped, 2u);
}

// --- PeerLink: multi-packet frames -------------------------------------------

TEST(PeerLink, MultiPacketFrameDeliversEachPacketOnceInOrder) {
  PeerLink sender, receiver;
  // A 200-byte packet takes a two-byte length; an empty one is a packet too.
  const Packets sent = {payload_of({1, 2, 3}), Bytes(200, std::byte{0x5a}),
                        Bytes{}, payload_of({4})};
  const auto views = views_of(sent);
  ASSERT_EQ(sender.frame_fit(views), sent.size());
  const Bytes dgram = sender.make_data(views, t0());
  EXPECT_EQ(sender.unacked(), 1u) << "one frame, one sequence number";
  EXPECT_EQ(sender.stats().data_sent, 1u);

  std::vector<Delivered> out;
  receiver.on_datagram(dgram, t0() + 1ms, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(packets_of(out[0]), sent);
  EXPECT_EQ(receiver.stats().data_received, 1u);
  EXPECT_EQ(receiver.stats().delivered, sent.size());

  // One ack retires the whole frame.
  const auto ack = receiver.take_ack_frame();
  ASSERT_TRUE(ack.has_value());
  sender.on_datagram(*ack, t0() + 2ms, out);
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST(PeerLink, RetransmittedFrameDeliversNothingNew) {
  LinkConfig cfg;
  cfg.rto_initial = 2'000us;
  PeerLink sender(cfg), receiver;
  const Packets sent = {payload_of({1}), payload_of({2, 2}), payload_of({3})};
  const Bytes original = sender.make_data(views_of(sent), t0());
  std::vector<Bytes> resends;
  EXPECT_EQ(sender.collect_retransmits(t0() + 2ms, resends), sent.size())
      << "the resend reports every packet it carries";
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(sender.stats().retransmits, 1u) << "retransmits count frames";

  std::vector<Delivered> out;
  receiver.on_datagram(original, t0() + 2ms, out);
  receiver.on_datagram(resends[0], t0() + 3ms, out);
  ASSERT_EQ(out.size(), 1u) << "the resent copy delivers nothing";
  EXPECT_EQ(packets_of(out[0]), sent);
  EXPECT_EQ(receiver.stats().delivered, sent.size());
  EXPECT_EQ(receiver.stats().duplicates_dropped, 1u);
  EXPECT_TRUE(receiver.acks_pending()) << "the duplicate is re-acked";
}

TEST(PeerLink, OverrunPacketLengthLeavesQueueAndAcksIntact) {
  // Two identical links: both have seqs 1 and 2 in flight and owe the peer
  // an ack.  One also receives forged DATA frames whose acks would retire
  // seq 1; each must count as malformed and change nothing else.
  auto make_link = [] {
    PeerLink link, peer;
    (void)link.make_data(payload_of({1}), t0());
    (void)link.make_data(payload_of({2}), t0());
    std::vector<Delivered> out;
    link.on_datagram(peer.make_data(payload_of({7}), t0()), t0(), out);
    return link;
  };
  PeerLink forged_at = make_link();
  PeerLink twin = make_link();
  ASSERT_EQ(forged_at.unacked(), 2u);
  ASSERT_TRUE(forged_at.acks_pending());

  // [kDataTag][seq=2][ts=0][n_acks=1][ack=1] and then a packet list:
  const auto data_frame = [](std::initializer_list<int> list) {
    Bytes frame = payload_of({netio::kDataTag, 2, 0, 1, 1});
    const Bytes tail = payload_of(list);
    frame.insert(frame.end(), tail.begin(), tail.end());
    return frame;
  };
  const Bytes overrun = data_frame({2, 1, 0x10, 5, 0x20});  // 2nd len 5 > 1
  const Bytes trailing = data_frame({1, 1, 0x10, 0x7f});    // a byte left over
  const Bytes short_count = data_frame({3, 1, 0x10, 1, 0x20});  // 3 claimed
  const Bytes empty_list = data_frame({0});
  std::vector<Delivered> out;
  for (const Bytes& bad : {overrun, trailing, short_count, empty_list}) {
    EXPECT_NO_THROW(forged_at.on_datagram(bad, t0(), out));
  }
  EXPECT_TRUE(out.empty()) << "a malformed frame must deliver nothing";
  EXPECT_EQ(forged_at.stats().malformed, 4u);
  EXPECT_EQ(forged_at.stats().data_received, twin.stats().data_received);
  EXPECT_EQ(forged_at.unacked(), 2u) << "a malformed frame's acks applied";
  EXPECT_EQ(forged_at.last_seq_seen(), twin.last_seq_seen());
  EXPECT_EQ(forged_at.take_ack_frame(), twin.take_ack_frame())
      << "a malformed frame was acked";

  // The same frame with a well-formed list is accepted.
  forged_at.on_datagram(data_frame({2, 1, 0x10, 1, 0x20}), t0(), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(packets_of(out[0]), (Packets{payload_of({0x10}), payload_of({0x20})}));
  EXPECT_EQ(forged_at.unacked(), 1u);
}

TEST(PeerLink, PacketsThatFitTakeTheLongestPrefixUnderTheBudget) {
  const Packets packets = {Bytes(10), Bytes(10), Bytes(10)};
  const auto views = views_of(packets);
  // A list of k 10-byte packets takes 1 + 11k bytes.
  EXPECT_EQ(netio::packet_list_size(views), 34u);
  EXPECT_EQ(netio::packets_that_fit(views, 34), 3u);
  EXPECT_EQ(netio::packets_that_fit(views, 33), 2u);
  EXPECT_EQ(netio::packets_that_fit(views, 23), 2u);
  EXPECT_EQ(netio::packets_that_fit(views, 22), 1u);
  EXPECT_EQ(netio::packets_that_fit(views, 1), 1u)
      << "a packet larger than any frame still travels, alone";
  EXPECT_EQ(netio::packets_that_fit({}, 100), 0u);
}

TEST(PeerLink, PassLargerThanTheCapLeavesAsSeveralFrames) {
  // 100 packets of 1,000 bytes: about 100 KB, more than one datagram holds.
  // Then two packets whose list alone (65,506 bytes) would fit the cap but
  // not with the DATA header in front: frame_fit must leave room for it.
  Packets many;
  for (int i = 0; i < 100; ++i) many.emplace_back(1'000, std::byte(i));
  const Packets tight = {Bytes(65'000, std::byte{1}), Bytes(500, std::byte{2})};
  for (const Packets& sent : {many, tight}) {
    const auto views = views_of(sent);
    PeerLink sender, receiver;
    std::span<const BytesView> rest(views);
    std::vector<Bytes> dgrams;
    while (!rest.empty()) {
      const std::size_t k = sender.frame_fit(rest);
      ASSERT_GE(k, 1u);
      dgrams.push_back(sender.make_data(rest.first(k), t0()));
      rest = rest.subspan(k);
    }
    EXPECT_GE(dgrams.size(), 2u);
    for (const Bytes& d : dgrams) EXPECT_LE(d.size(), netio::kMaxDatagram);

    std::vector<Delivered> out;
    for (const Bytes& d : dgrams) receiver.on_datagram(d, t0(), out);
    Packets got;
    for (const Delivered& d : out) {
      for (Bytes& p : packets_of(d)) got.push_back(std::move(p));
    }
    EXPECT_EQ(got, sent) << "every packet once, in order, across the frames";
  }
}

// --- PeerLink: retransmission and backoff -----------------------------------

TEST(PeerLink, RetransmitsAfterRtoWithBackoff) {
  LinkConfig cfg;
  cfg.rto_initial = 2'000us;
  cfg.rto_max = 8'000us;
  PeerLink sender(cfg);
  (void)sender.make_data(payload_of({9}), t0());

  std::vector<Bytes> resends;
  sender.collect_retransmits(t0() + 1ms, resends);
  EXPECT_TRUE(resends.empty()) << "fired before the RTO";

  sender.collect_retransmits(t0() + 3ms, resends);
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(sender.stats().retransmits, 1u);

  // Backoff doubled to 4 ms: quiet until then, firing after.
  resends.clear();
  sender.collect_retransmits(t0() + 5ms, resends);
  EXPECT_TRUE(resends.empty());
  sender.collect_retransmits(t0() + 8ms, resends);
  ASSERT_EQ(resends.size(), 1u);

  // A retransmission is a full DATA frame: the receiver treats a first-ever
  // arrival of it as the original.
  PeerLink receiver;
  std::vector<Delivered> out;
  receiver.on_datagram(resends[0], t0() + 9ms, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(packets_of(out[0]), Packets{payload_of({9})});
}

// --- PeerLink: RTT estimate and retransmit timeout ---------------------------

// Deliver `dgram` to `receiver` and hand its pure ACK back to `sender` at
// `acked_at`: one round trip of the frame's sequence number.
void ack_via(PeerLink& sender, PeerLink& receiver, const Bytes& dgram,
             PeerLink::TimePoint acked_at) {
  std::vector<Delivered> out;
  receiver.on_datagram(dgram, acked_at, out);
  const auto ack = receiver.take_ack_frame();
  ASSERT_TRUE(ack.has_value());
  sender.on_datagram(*ack, acked_at, out);
}

TEST(PeerLink, TimeoutBeforeFirstSampleIsRtoInitial) {
  LinkConfig cfg;
  cfg.rto_initial = 3'000us;
  PeerLink sender(cfg);
  (void)sender.make_data(payload_of({1}), t0());
  EXPECT_FALSE(sender.srtt().has_value());
  EXPECT_EQ(sender.next_deadline(), t0() + 3'000us);
}

TEST(PeerLink, FirstSampleSeedsEstimatorAndLaterOnesSmooth) {
  PeerLink sender, receiver;
  ack_via(sender, receiver, sender.make_data(payload_of({1}), t0()),
          t0() + 100us);
  EXPECT_EQ(sender.srtt(), std::optional<PeerLink::Clock::duration>(100us));
  EXPECT_EQ(sender.rttvar(), std::optional<PeerLink::Clock::duration>(50us));
  // RFC 6298: RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|, SRTT <- 7/8 SRTT + 1/8 R.
  ack_via(sender, receiver, sender.make_data(payload_of({2}), t0() + 1ms),
          t0() + 1ms + 200us);
  EXPECT_EQ(sender.srtt(), std::optional<PeerLink::Clock::duration>(112'500ns));
  EXPECT_EQ(sender.rttvar(), std::optional<PeerLink::Clock::duration>(62'500ns));
}

TEST(PeerLink, SamplePullsInDeadlineOfFrameInFlight) {
  // Both frames leave before the link has an estimate, so both start with
  // rto_initial.  The ack of the first sets SRTT = 100 us, and the second's
  // deadline moves to its send time + 2 * SRTT without being resent.
  LinkConfig cfg;
  cfg.rto_initial = 2'000us;
  PeerLink sender(cfg), receiver;
  const Bytes first = sender.make_data(payload_of({1}), t0());
  (void)sender.make_data(payload_of({2}), t0());
  ASSERT_EQ(sender.next_deadline(), t0() + 2'000us);

  ack_via(sender, receiver, first, t0() + 100us);
  EXPECT_EQ(sender.unacked(), 1u);
  EXPECT_EQ(sender.next_deadline(), t0() + 200us);
  std::vector<Bytes> resends;
  sender.collect_retransmits(t0() + 199us, resends);
  EXPECT_TRUE(resends.empty());
  sender.collect_retransmits(t0() + 200us, resends);
  EXPECT_EQ(resends.size(), 1u);
}

TEST(PeerLink, AckOfRetransmittedFrameIsNotSampled) {
  LinkConfig cfg;
  cfg.rto_initial = 2'000us;
  PeerLink sender(cfg), receiver;
  (void)sender.make_data(payload_of({1}), t0());
  std::vector<Bytes> resends;
  sender.collect_retransmits(t0() + 2'000us, resends);
  ASSERT_EQ(resends.size(), 1u);

  // The ack may answer either copy, so it measures nothing (Karn's rule).
  ack_via(sender, receiver, resends[0], t0() + 2'010us);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_FALSE(sender.srtt().has_value());
  (void)sender.make_data(payload_of({2}), t0() + 3ms);
  EXPECT_EQ(sender.next_deadline(), t0() + 3ms + 2'000us);
}

TEST(PeerLink, BackoffDoublesUntilRtoMax) {
  LinkConfig cfg;
  cfg.rto_initial = 1'000us;
  cfg.rto_max = 1'000us;
  PeerLink sender(cfg), receiver;
  ack_via(sender, receiver, sender.make_data(payload_of({1}), t0()),
          t0() + 100us);  // timeout 2 * SRTT = 200 us
  auto sent = t0() + 1ms;
  (void)sender.make_data(payload_of({2}), sent);
  std::vector<Bytes> resends;
  for (const auto gap : {200us, 400us, 800us, 1'000us, 1'000us}) {
    ASSERT_EQ(sender.next_deadline(), sent + gap);
    resends.clear();
    sender.collect_retransmits(sent + gap - 1us, resends);
    EXPECT_TRUE(resends.empty());
    sent += gap;
    sender.collect_retransmits(sent, resends);
    EXPECT_EQ(resends.size(), 1u);
  }
  EXPECT_EQ(sender.stats().retransmits, 5u);
}

TEST(PeerLink, TimeoutNeverDropsBelowFloor) {
  // Round trips of 1 us would give 2 * SRTT = 2 us; the floor (50 us,
  // netio/link.cpp) holds the timeout there instead.
  PeerLink sender, receiver;
  for (int i = 0; i < 8; ++i) {
    const auto at = t0() + i * 1ms;
    ack_via(sender, receiver, sender.make_data(payload_of({i}), at), at + 1us);
  }
  ASSERT_EQ(sender.srtt(), std::optional<PeerLink::Clock::duration>(1us));
  const auto sent = t0() + 10ms;
  (void)sender.make_data(payload_of({9}), sent);
  EXPECT_EQ(sender.next_deadline(), sent + 50us);
}

TEST(PeerLink, CapacityBoundsResendQueue) {
  LinkConfig cfg;
  cfg.max_unacked = 4;
  PeerLink sender(cfg);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sender.has_capacity());
    (void)sender.make_data(payload_of({i}), t0());
  }
  EXPECT_FALSE(sender.has_capacity());
  EXPECT_EQ(sender.stats().unacked_peak, 4u);
}

// --- PeerLink: total decoders ------------------------------------------------

TEST(PeerLink, GarbageDatagramsAreCountedNeverThrown) {
  PeerLink link;
  std::vector<Delivered> out;
  const Bytes truncated_data = {static_cast<std::byte>(netio::kDataTag)};
  const Bytes truncated_ack = {static_cast<std::byte>(netio::kAckTag),
                               static_cast<std::byte>(0xFF)};
  const Bytes wrong_tag = payload_of({0x01, 0x02, 0x03});
  const Bytes empty;
  for (const Bytes& bad : {empty, truncated_data, truncated_ack, wrong_tag}) {
    EXPECT_NO_THROW(link.on_datagram(bad, t0(), out));
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(link.stats().malformed, 4u);
  EXPECT_EQ(link.stats().delivered, 0u);
}

TEST(PeerLink, ForgedAckCountIsClamped) {
  // An ACK frame claiming more entries than the datagram holds must not
  // over-read; the whole frame is rejected as malformed — acks apply only
  // after the frame validates end to end.
  PeerLink sender;
  (void)sender.make_data(payload_of({1}), t0());
  Bytes forged = {static_cast<std::byte>(netio::kAckTag),
                  static_cast<std::byte>(200)};  // claims 200 acks, has none
  std::vector<Delivered> out;
  EXPECT_NO_THROW(sender.on_datagram(forged, t0(), out));
  EXPECT_EQ(sender.unacked(), 1u);  // nothing legitimately acked
  EXPECT_EQ(sender.stats().malformed, 1u);
}

TEST(PeerLink, TruncatedAckListLeavesQueueIntact) {
  // Fuzz-surfaced gap (PR 10): DATA frames used to apply piggybacked acks as
  // they parsed, so a frame whose ack list claimed 3 entries but truncated
  // after 1 would still retire that first sequence number from the resend
  // queue before the frame was rejected.  Parsing is now two-phase: acks are
  // collected first and applied only once the whole frame validates, so a
  // truncated forgery must leave the queue exactly as it was.
  PeerLink sender;
  (void)sender.make_data(payload_of({1}), t0());  // seq 1 in flight
  (void)sender.make_data(payload_of({2}), t0());  // seq 2 in flight
  ASSERT_EQ(sender.unacked(), 2u);

  // [kDataTag][seq=1][ts=0][n_acks=3][ack=1]  — list ends 2 entries short.
  const Bytes forged = {static_cast<std::byte>(netio::kDataTag),
                        static_cast<std::byte>(1), static_cast<std::byte>(0),
                        static_cast<std::byte>(3), static_cast<std::byte>(1)};
  std::vector<Delivered> out;
  EXPECT_NO_THROW(sender.on_datagram(forged, t0(), out));
  EXPECT_TRUE(out.empty()) << "a malformed frame must deliver nothing";
  EXPECT_EQ(sender.unacked(), 2u) << "partial ack list leaked into the queue";
  EXPECT_EQ(sender.stats().malformed, 1u);
}

TEST(PeerLink, PureAckWithTrailingBytesIsRejected) {
  // A standalone ACK frame must account for every byte: trailing garbage
  // after the declared ack list means the frame is forged or corrupted, and
  // none of its acks may be applied.
  PeerLink sender;
  (void)sender.make_data(payload_of({1}), t0());  // seq 1 in flight
  const Bytes forged = {static_cast<std::byte>(netio::kAckTag),
                        static_cast<std::byte>(1), static_cast<std::byte>(1),
                        static_cast<std::byte>(0x7f)};  // valid ack + garbage
  std::vector<Delivered> out;
  EXPECT_NO_THROW(sender.on_datagram(forged, t0(), out));
  EXPECT_EQ(sender.unacked(), 1u) << "acks from an oversized frame applied";
  EXPECT_EQ(sender.stats().malformed, 1u);
}

// --- FaultShim ---------------------------------------------------------------

TEST(FaultShim, DisabledAlwaysPasses) {
  FaultShim shim(FaultConfig{}, /*party=*/0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(shim.decide(), FaultShim::Fate::kPass);
  }
  EXPECT_EQ(shim.dropped(), 0u);
  EXPECT_EQ(shim.delayed(), 0u);
}

TEST(FaultShim, DecisionSequenceIsDeterministicPerSeedAndParty) {
  FaultConfig cfg;
  cfg.loss = 0.3;
  cfg.reorder = 0.2;
  cfg.seed = 42;
  auto sequence = [&cfg](std::uint32_t party) {
    FaultShim shim(cfg, party);
    std::vector<FaultShim::Fate> fates;
    for (int i = 0; i < 256; ++i) fates.push_back(shim.decide());
    return fates;
  };
  EXPECT_EQ(sequence(0), sequence(0));  // reproducible
  EXPECT_NE(sequence(0), sequence(1));  // parties draw independent streams
  const auto fates = sequence(3);
  const auto dropped = static_cast<std::size_t>(
      std::count(fates.begin(), fates.end(), FaultShim::Fate::kDrop));
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, fates.size());
}

TEST(FaultShim, RejectsOutOfRangeProbabilities) {
  FaultConfig cfg;
  cfg.loss = 1.0;  // would drop every attempt forever: no eventual delivery
  EXPECT_THROW(FaultShim(cfg, 0), std::invalid_argument);
  cfg.loss = 0.0;
  cfg.reorder = -0.1;
  EXPECT_THROW(FaultShim(cfg, 0), std::invalid_argument);
}

// --- UdpSocket ---------------------------------------------------------------

TEST(UdpSocket, LoopbackDatagramRoundTrip) {
  netio::UdpSocket a, b;
  a.bind(0);
  b.bind(0);
  ASSERT_TRUE(a.is_open());
  ASSERT_NE(a.port(), 0u) << "ephemeral bind must resolve the port";
  ASSERT_NE(a.port(), b.port());

  const Bytes msg = payload_of({0xA, 0xB, 0xC});
  ASSERT_TRUE(a.send_to({b.port()}, msg));
  ASSERT_TRUE(b.wait_readable(1'000'000));
  netio::UdpAddress from;
  Bytes buf(netio::kMaxDatagram);
  const auto got = b.recv_into(buf, from);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(Bytes(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(*got)),
            msg);
  EXPECT_EQ(from.port, a.port());
  EXPECT_FALSE(b.recv_into(buf, from).has_value()) << "queue must be empty now";

  // Every call counts, the empty receive included.
  EXPECT_EQ(a.counts().sends, 1u);
  EXPECT_EQ(b.counts().recvs, 2u);
  EXPECT_EQ(b.counts().recvs_empty, 1u);
  EXPECT_EQ(b.counts().waits, 1u);
  EXPECT_EQ(a.counts().recvs + a.counts().waits, 0u);
}

TEST(UdpSocket, DatagramOfTheCapGoesThroughLoopback) {
  // kMaxDatagram caps every frame the link packs: the kernel must take a
  // datagram of exactly that size (one byte more is EMSGSIZE over IPv4).
  netio::UdpSocket a, b;
  a.bind(0);
  b.bind(0);
  const Bytes big(netio::kMaxDatagram, std::byte{0x42});
  ASSERT_TRUE(a.send_to({b.port()}, big));
  ASSERT_TRUE(b.wait_readable(1'000'000));
  netio::UdpAddress from;
  Bytes buf(netio::kMaxDatagram);
  EXPECT_EQ(b.recv_into(buf, from), std::optional<std::size_t>(big.size()));
  EXPECT_FALSE(a.send_to({b.port()}, Bytes(netio::kMaxDatagram + 1)));
}

// --- SocketNetwork end to end ------------------------------------------------

constexpr SystemParams kP{5, 1};
constexpr Round kRounds = 6;

void add_crash_aa_parties(rt::SocketNetwork& net) {
  for (ProcessId i = 0; i < kP.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(kP, static_cast<double>(i), kRounds)));
  }
}

TEST(SocketNet, CleanRunConvergesWithExactLogicalCounts) {
  rt::SocketNetwork net(kP);
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(30'000ms));
  EXPECT_TRUE(net.inbox().all_correct_output());
  const auto outs = net.inbox().correct_outputs();
  ASSERT_EQ(outs.size(), kP.n);
  for (double v : outs) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 4.0);
  }
  // Logical accounting identical to the other transports: fixed-round runs
  // send exactly n * (n - 1) frames per round.
  EXPECT_EQ(net.metrics().messages_sent,
            static_cast<std::uint64_t>(kP.n) * (kP.n - 1) * kRounds);
}

TEST(SocketNet, InjectedLossForcesRetransmissionButNotLogicalInflation) {
  rt::SocketNetwork net(kP);
  FaultConfig faults;
  faults.loss = 0.15;
  faults.reorder = 0.05;
  faults.seed = 11;
  net.set_fault_config(faults);
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(60'000ms)) << "perfect link must absorb 15% loss";
  EXPECT_TRUE(net.inbox().all_correct_output());

  // The whole point of the shim: the retransmission path actually ran.
  EXPECT_GT(net.link_totals().retransmits, 0u);
  EXPECT_GT(net.metrics().packets_retransmitted, 0u);
  EXPECT_GT(net.metrics().retransmit_rate(), 0.0);

  // Satellite invariant — retransmits are PHYSICAL: logical message counts
  // and packing efficiency must match the loss-free run exactly.
  EXPECT_EQ(net.metrics().messages_sent,
            static_cast<std::uint64_t>(kP.n) * (kP.n - 1) * kRounds);
  EXPECT_DOUBLE_EQ(net.metrics().msgs_per_packet(), 1.0);
}

TEST(SocketNet, BatchingKeepsLogicalCountsAndPacksPackets) {
  auto run_with_batching = [](std::uint32_t batch) {
    rt::SocketNetwork net(kP);
    if (batch > 0) net.enable_batching(batch);
    add_crash_aa_parties(net);
    EXPECT_TRUE(net.run(30'000ms));
    return net.metrics();
  };
  const net::Metrics unbatched = run_with_batching(0);
  const net::Metrics batched = run_with_batching(8);
  EXPECT_EQ(batched.messages_sent, unbatched.messages_sent);
  EXPECT_LE(batched.packets_sent, unbatched.packets_sent);
  EXPECT_GE(batched.msgs_per_packet(), unbatched.msgs_per_packet());
}

TEST(SocketNet, CrashAfterSendsCountsLogicalSends) {
  rt::SocketNetwork net(kP);
  net.crash_after_sends(4, 4);  // one full round-0 multicast, then crash
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(30'000ms));
  EXPECT_FALSE(net.inbox().is_correct(4));
  EXPECT_EQ(net.metrics().sent_by[4], 4u);
  const auto outs = net.inbox().correct_outputs();
  EXPECT_EQ(outs.size(), kP.n - 1);
}

/// A party that never sends and never outputs.
class InertProcess final : public net::Process {
 public:
  void on_start(net::Context&) override {}
  void on_message(net::Context&, ProcessId, BytesView) override {}
};

TEST(SocketNet, ExternalCrashOfLastBlockerEndsRun) {
  rt::SocketNetwork net(kP);
  for (ProcessId i = 0; i + 1 < kP.n; ++i) {
    net.add_process(std::make_unique<core::RoundAaProcess>(
        core::crash_aa_config(kP, static_cast<double>(i), kRounds)));
  }
  net.add_process(std::make_unique<InertProcess>());  // correct, never outputs
  // Each honest party counts once, when its probe first holds (a latched
  // party is never probed again); then party 4 alone blocks, and another
  // thread crashes it while run() waits.
  constexpr int kHonest = kP.n - 1;
  std::atomic<int> honest_done{0};
  std::jthread crasher([&] {
    for (int seen = 0; seen < kHonest; seen = honest_done.load()) {
      honest_done.wait(seen);
    }
    net.crash(kP.n - 1);
  });
  const bool completed = net.run(60'000ms, [&](const net::Process& proc) {
    if (!proc.has_output()) return false;
    ++honest_done;
    honest_done.notify_one();
    return true;
  });
  honest_done = kHonest;  // releases the crasher if run() timed out
  honest_done.notify_one();
  crasher.join();
  ASSERT_TRUE(completed);
  EXPECT_FALSE(net.inbox().is_correct(kP.n - 1));
  EXPECT_EQ(net.inbox().correct_outputs().size(), kP.n - 1);
}

TEST(SocketNet, LinkStateSnapshotCoversEveryLocalParty) {
  rt::SocketNetwork net(kP);
  FaultConfig faults;
  faults.loss = 0.10;
  faults.seed = 5;
  net.set_fault_config(faults);
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(60'000ms));
  const auto lines = net.link_state_jsonl();
  ASSERT_EQ(lines.size(), kP.n);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"party\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"retransmits\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"last_seq_seen\":"), std::string::npos) << line;
  }
}

TEST(SocketNet, WireCountsReachLinkTotalsAndSnapshot) {
  rt::SocketNetwork net(kP);
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(30'000ms));
  const netio::LinkStats s = net.link_totals();
  // No fault shim: every DATA frame, resend and pure ACK is one sendto, and
  // every datagram received (DATA or ACK) came from one recvfrom.
  EXPECT_GE(s.wire.sends, s.data_sent + s.retransmits);
  EXPECT_GE(s.wire.recvs - s.wire.recvs_empty, s.data_received);
  EXPECT_LE(s.wire.recvs_empty, s.wire.recvs);
  EXPECT_GT(s.wire.waits, 0u);
  // One loop pass sends one frame per peer: 6 rounds of n - 1 packets per
  // party need no more frames than packets.
  EXPECT_LE(s.data_sent, net.metrics().packets_sent);
  EXPECT_LE(s.delivered, net.metrics().packets_sent)
      << "no packet handed up twice";
  std::uint64_t sends_in_lines = 0;
  for (const std::string& line : net.link_state_jsonl()) {
    const auto at = line.find("\"wire_sends\":");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_NE(line.find("\"wire_recvs\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"wire_recvs_empty\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"wire_waits\":"), std::string::npos) << line;
    sends_in_lines += std::stoull(line.substr(at + 13));
  }
  EXPECT_EQ(sends_in_lines, s.wire.sends);
}

TEST(SocketNet, TraceRecordsRetransmitEvents) {
  obs::TraceSink trace;
  rt::SocketNetwork net(kP);
  FaultConfig faults;
  faults.loss = 0.15;
  faults.seed = 3;
  net.set_fault_config(faults);
  net.set_trace(&trace);
  add_crash_aa_parties(net);
  ASSERT_TRUE(net.run(60'000ms));
  std::size_t retransmit_events = 0;
  for (const auto& ev : trace.snapshot()) {
    if (ev.kind == obs::EventKind::kRetransmit) ++retransmit_events;
    // Executor-domain: retransmits must never contaminate protocol digests.
    EXPECT_FALSE(ev.kind == obs::EventKind::kRetransmit &&
                 obs::is_protocol_event(ev.kind));
  }
  EXPECT_GT(retransmit_events, 0u);
}

// --- metrics accounting (unit level) -----------------------------------------

TEST(SocketMetrics, RetransmitsNeverTouchLogicalCounters) {
  net::Metrics m;
  m.reset(2);
  const Bytes frame = payload_of({1, 0, 10});  // [tag][round][value...]
  m.note_send(0, frame);
  const std::uint64_t msgs = m.messages_sent;
  const std::uint64_t packets = m.packets_sent;
  const double mpp = m.msgs_per_packet();

  for (int i = 0; i < 5; ++i) m.note_retransmit(1, frame.size() + 8);
  EXPECT_EQ(m.messages_sent, msgs);
  EXPECT_EQ(m.packets_sent, packets);
  EXPECT_DOUBLE_EQ(m.msgs_per_packet(), mpp);
  EXPECT_EQ(m.packets_retransmitted, 5u);
  EXPECT_EQ(m.retransmit_bytes, 5 * (frame.size() + 8));
  EXPECT_DOUBLE_EQ(m.retransmit_rate(), 5.0);
  EXPECT_EQ(m.sent_by[0], msgs);

  // A link frame carrying three packets is resent once: three packets
  // resent, one datagram's bytes, and still no logical count moves.
  m.note_send(0, frame);
  m.note_send(0, frame);
  m.note_send(0, frame);
  const std::uint64_t msgs4 = m.messages_sent;
  m.note_retransmit(3, 3 * (frame.size() + 1) + 9);
  EXPECT_EQ(m.messages_sent, msgs4);
  EXPECT_EQ(m.packets_sent, packets + 3);
  EXPECT_DOUBLE_EQ(m.msgs_per_packet(), mpp);
  EXPECT_EQ(m.packets_retransmitted, 8u);
  EXPECT_EQ(m.retransmit_bytes, 5 * (frame.size() + 8) + 3 * (frame.size() + 1) + 9);
  EXPECT_DOUBLE_EQ(m.retransmit_rate(), 8.0 / 4.0)
      << "packets resent per logical packet";
}

// --- flight recorder integration (harness-level) -----------------------------

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(SocketFlightRecorder, FailedVerdictDumpsLinkState) {
  using namespace apxa::harness;
  // Impossible epsilon after one round: the eps-agreement verdict fails by
  // construction, and on the socket backend the dump must carry per-party
  // link-layer state next to the event ring.
  RunConfig cfg;
  cfg.params = kP;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.backend = BackendKind::kSocket;
  cfg.fixed_rounds = 1;
  cfg.epsilon = 1e-9;
  cfg.inputs = linear_inputs(kP.n, 0.0, 1.0);
  cfg.socket_faults.loss = 0.10;
  cfg.socket_faults.seed = 7;
  cfg.thread_timeout = 60s;

  obs::TraceSink trace;
  cfg.trace = &trace;
  cfg.flight_dump = temp_path("socket_fr_verdict.jsonl");
  std::remove(cfg.flight_dump.c_str());

  const RunReport rep = run(cfg);
  ASSERT_FALSE(rep.agreement_ok);

  std::ifstream in(cfg.flight_dump);
  ASSERT_TRUE(in.good()) << "failed verdict must leave a flight dump";
  std::size_t link_state_lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"link_state\":") != std::string::npos) ++link_state_lines;
  }
  EXPECT_EQ(link_state_lines, kP.n)
      << "one link-state line per local party expected in " << cfg.flight_dump;
  std::remove(cfg.flight_dump.c_str());
}

}  // namespace
}  // namespace apxa
