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
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
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
  EXPECT_EQ(out[0].payload, msg);
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
  EXPECT_EQ(out[0].payload, payload_of({2}));
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
  EXPECT_EQ(out[0].payload, payload_of({2}));
  EXPECT_EQ(out[1].payload, payload_of({1}));
  // Both seqs are now at/below the contiguous frontier: replays of either
  // are duplicates.
  out.clear();
  receiver.on_datagram(d2, t0(), out);
  receiver.on_datagram(d1, t0(), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(receiver.stats().duplicates_dropped, 2u);
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
  EXPECT_EQ(out[0].payload, payload_of({9}));
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

  for (int i = 0; i < 5; ++i) m.note_retransmit(frame.size() + 8);
  EXPECT_EQ(m.messages_sent, msgs);
  EXPECT_EQ(m.packets_sent, packets);
  EXPECT_DOUBLE_EQ(m.msgs_per_packet(), mpp);
  EXPECT_EQ(m.packets_retransmitted, 5u);
  EXPECT_EQ(m.retransmit_bytes, 5 * (frame.size() + 8));
  EXPECT_DOUBLE_EQ(m.retransmit_rate(), 5.0);
  EXPECT_EQ(m.sent_by[0], msgs);
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
