// netio — retransmit+ack perfect link over an unreliable datagram service.
//
// The paper's model assumes reliable authenticated point-to-point links with
// unbounded (but finite) delay.  UDP gives neither reliability nor
// no-duplication, so the real-network backend (rt::SocketNetwork) runs every
// party-to-party channel through this layer, which restores the three
// perfect-link obligations over a lossy, reordering datagram service:
//
//   eventual delivery — every datagram carries a per-link sequence number and
//                       stays in a bounded resend queue, retransmitted with
//                       exponential backoff until acknowledged;
//   no duplication    — the receiver tracks a contiguous-received frontier
//                       plus a window of out-of-order sequence numbers and
//                       delivers each sequence number exactly once (re-acking
//                       duplicates, since the original ack may have been
//                       lost);
//   no creation       — only well-formed DATA frames are delivered, and the
//                       decoders are TOTAL: any byte sequence decodes to a
//                       frame or is counted and ignored, never a crash.
//
// Acks piggyback on DATA frames going the other way and are also flushed as
// pure ACK datagrams, so one-directional traffic still gets acknowledged.
//
// The retransmit timeout follows the link's measured round-trip time.  Each
// ack of a frame that was never retransmitted yields one RTT sample (Karn's
// rule: the ack of a resent frame cannot tell which copy it answers); the
// samples feed the SRTT/RTTVAR estimator of RFC 6298, and the timeout is
// max(floor, 2 * SRTT), the probe timeout of RFC 8985 (floor in link.cpp).
// Until the first sample it is LinkConfig::rto_initial.  A frame's deadline
// is its last send time plus that timeout doubled per retransmission, capped
// at rto_max, and is always computed from the CURRENT estimate, so frames
// queued before the first sample speed up as soon as it arrives.
//
// The resend queue is bounded (LinkConfig::max_unacked); when it fills, the
// caller must pump its socket for acks before sending more — backpressure,
// not silent dropping.
//
// PeerLink is a pure state machine: no sockets, no clock reads, no threads.
// Time enters through explicit `now` parameters, and every datagram crosses
// the boundary as bytes, which is what makes the retransmission logic
// testable deterministically (tests/socket_net_test.cpp) independent of the
// OS scheduler.
//
// Wire format (a DATA frame carries a list of whole transport packets — each
// a protocol frame, an instance envelope, or a batch packet of
// net/envelope.hpp; a frame of one packet is a list of one):
//   DATA : [0xA1][seq varint][send_ts_us varint]
//          [n_acks varint]([acked seq varint])*
//          [n_packets varint]([len varint][packet])*
//   ACK  : [0xA2][n_acks varint]([acked seq varint])*
// Both parse exactly to the datagram's end or not at all: a frame whose ack
// list or packet list is short, whose packet list is empty, or that leaves
// trailing bytes is malformed, and a malformed frame is neither acked nor
// delivered and acks nothing.  Sequence
// numbers, acks, retransmission and dedup are per frame; the packets of a
// frame are delivered together, in order, once.  A sender packs as many
// packets into one frame as fit in kMaxDatagram (frame_fit).
// Tag bytes 0xA1/0xA2 are outside the protocol tag range (1..12), so a link
// frame can never be confused with an unwrapped protocol packet.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "netio/udp.hpp"

namespace apxa::netio {

/// Link-frame wire tags (disjoint from core/codec.hpp protocol tags 1..12).
inline constexpr std::uint8_t kDataTag = 0xA1;
inline constexpr std::uint8_t kAckTag = 0xA2;

/// Decode-side cap on acks per frame (byzantine peers forge their own
/// counts); the encoder never packs more than LinkConfig::max_acks_per_frame.
inline constexpr std::uint32_t kMaxAcksDecode = 1024;

/// Encoded size of a DATA frame's packet list.
std::size_t packet_list_size(std::span<const BytesView> packets);

/// Length of the longest prefix of `packets` whose packet list takes at most
/// `budget` bytes — but at least 1 for a non-empty span: a packet too large
/// for any frame still travels, alone.
std::size_t packets_that_fit(std::span<const BytesView> packets,
                             std::size_t budget);

/// Walk a packet list `[n_packets varint]([len varint][packet])*`, calling
/// f(packet) for each packet in order (a view into `list`), and return true
/// when the list parses exactly to its end.  Total: at the first entry that
/// runs past the end it returns false, after f has seen the entries before
/// it — so validate with a side-effect-free f first where all-or-nothing
/// matters (PeerLink::on_datagram does).
template <class F>
bool for_each_packet(BytesView list, F&& f) {
  std::size_t pos = 0;
  std::uint64_t n = 0;
  if (!read_varint(list, pos, n)) return false;
  // Every entry takes at least its length byte, so the loop ends within
  // list.size() steps whatever `n` a forger writes.
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t len = 0;
    if (!read_varint(list, pos, len) || len > list.size() - pos) return false;
    f(list.subspan(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
  }
  return pos == list.size();
}

struct LinkConfig {
  /// Retransmit timeout until the link's first RTT sample; afterwards the
  /// timeout tracks the measured RTT (header comment).  Conservative on
  /// purpose: it only covers the first round trip of a link.
  std::chrono::microseconds rto_initial{2'000};
  /// Backoff cap: no deadline lies further than this past a frame's last
  /// send, however many times it was resent.
  std::chrono::microseconds rto_max{64'000};
  /// Bounded resend queue: at most this many unacked DATA frames in flight
  /// per link.  Senders hitting the bound must pump acks (backpressure).
  std::uint32_t max_unacked = 512;
  /// Encode-side cap on piggybacked / pure-frame acks.
  std::uint32_t max_acks_per_frame = 64;
};

/// Counters one PeerLink accumulates; SocketNetwork aggregates them per
/// party for metrics, the f5 bench and the flight-recorder link-state dump.
struct LinkStats {
  std::uint64_t data_sent = 0;           ///< DATA frames, first transmissions
  std::uint64_t retransmits = 0;         ///< DATA frames resent by the timer
  std::uint64_t data_received = 0;       ///< well-formed DATA frames in
  std::uint64_t delivered = 0;           ///< packets handed up (post-dedup)
  std::uint64_t duplicates_dropped = 0;  ///< frames re-received, re-acked, not delivered
  std::uint64_t acks_sent = 0;           ///< ack entries emitted (piggyback + pure)
  std::uint64_t acks_received = 0;       ///< ack entries consumed
  std::uint64_t malformed = 0;           ///< undecodable datagrams ignored
  std::uint64_t unacked_peak = 0;        ///< resend-queue high-water mark
  /// The party's socket calls: SocketNetwork copies them from its
  /// UdpSocket; a PeerLink leaves them 0.
  WireCounts wire;

  /// Add `o`'s counters to these; the peaks take the larger.
  void merge(const LinkStats& o);
};

/// One DATA frame's packets handed up by the link: its packet list, one
/// buffer that for_each_packet walks as views, and the sender-to-receiver
/// latency measured from the frame's send timestamp (valid within one
/// process; across processes the clocks differ and the value is only
/// indicative).
struct Delivered {
  Bytes packets;
  double latency_s = 0.0;
};

/// Perfect-link endpoint for ONE ordered pair of parties (self -> peer for
/// sending, peer -> self for receiving).  Single-threaded by construction:
/// the owning party's thread is the only caller.
class PeerLink {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  explicit PeerLink(LinkConfig cfg = {});

  /// True when the resend queue has room for another DATA frame.
  [[nodiscard]] bool has_capacity() const {
    return unacked_.size() < cfg_.max_unacked;
  }

  /// How many leading `packets` one DATA frame of this link carries within
  /// kMaxDatagram, whatever acks it piggybacks (at least one).
  [[nodiscard]] std::size_t frame_fit(std::span<const BytesView> packets) const;

  /// Frame `packets` (non-empty; more than one only if frame_fit allows) as
  /// the next DATA datagram, consuming pending acks as piggyback, enqueue it
  /// for retransmission and return the encoded bytes.  Requires
  /// has_capacity().
  Bytes make_data(std::span<const BytesView> packets, TimePoint now);
  /// A frame of one packet.
  Bytes make_data(BytesView packet, TimePoint now) {
    return make_data(std::span<const BytesView>(&packet, 1), now);
  }

  /// Process one incoming datagram from the peer: consume its acks, dedup
  /// the frame and append at most one Delivered entry.  Total — malformed
  /// input is counted and ignored.
  void on_datagram(BytesView dgram, TimePoint now, std::vector<Delivered>& out);

  /// Encoded DATA frames whose retransmit deadline has passed (each one's
  /// send time and backoff are advanced; stats.retransmits counts each).
  /// Retransmissions carry a fresh timestamp and the current pending acks.
  /// Returns the number of packets the appended frames carry.
  std::size_t collect_retransmits(TimePoint now, std::vector<Bytes>& out);

  /// Pure ACK datagram when acks are pending and no DATA is about to carry
  /// them; nullopt otherwise.
  std::optional<Bytes> take_ack_frame();

  /// Earliest retransmit deadline, or TimePoint::max() when nothing is in
  /// flight.
  [[nodiscard]] TimePoint next_deadline() const;

  [[nodiscard]] std::size_t unacked() const { return unacked_.size(); }
  [[nodiscard]] bool acks_pending() const { return !pending_acks_.empty(); }
  /// Highest sequence number ever received from the peer (0 = none).
  [[nodiscard]] std::uint64_t last_seq_seen() const { return last_seq_seen_; }
  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  /// RFC 6298 smoothed RTT and RTT variation; nullopt before the first
  /// sample.
  [[nodiscard]] std::optional<Clock::duration> srtt() const;
  [[nodiscard]] std::optional<Clock::duration> rttvar() const;

 private:
  struct InFlight {
    Bytes list;               // the encoded packet list (not the DATA header)
    std::size_t packets = 0;  // packets in `list`
    TimePoint sent;           // last transmission
    unsigned resent = 0;      // retransmissions so far; 0 = ack is an RTT sample
  };

  Bytes encode_data(std::uint64_t seq, BytesView list, TimePoint now);
  void note_unacked_peak();
  /// Remove `seq` from the resend queue (ack consumption), sampling the RTT
  /// if the frame was sent only once.
  void ack_one(std::uint64_t seq, TimePoint now);
  void sample_rtt(Clock::duration rtt);
  /// Retransmit deadline of `f` under the current RTT estimate.
  [[nodiscard]] TimePoint deadline(const InFlight& f) const;

  LinkConfig cfg_;
  LinkStats stats_;

  // Sender side (self -> peer).
  std::uint64_t next_seq_ = 1;
  std::vector<std::pair<std::uint64_t, InFlight>> unacked_;  // seq-ordered
  bool rtt_sampled_ = false;
  Clock::duration srtt_{0};
  Clock::duration rttvar_{0};

  // Receiver side (peer -> self).  Everything below `contiguous_` (exclusive
  // upper frontier: all seqs in [1, contiguous_] received) is a duplicate;
  // `out_of_order_` holds received seqs above the frontier.  Bounded because
  // the peer's resend queue bounds its in-flight window.
  std::uint64_t contiguous_ = 0;
  std::set<std::uint64_t> out_of_order_;
  std::uint64_t last_seq_seen_ = 0;
  std::vector<std::uint64_t> pending_acks_;
};

}  // namespace apxa::netio
