// Communication metrics, accounted the way the approximate-agreement
// literature counts complexity:
//   message complexity  = number of LOGICAL point-to-point messages sent
//                         (batching packs several into one packet; the
//                         per-tag/per-round/per-instance counters below count
//                         envelopes, not packets, so batched runs stay
//                         comparable to unbatched ones),
//   communication (bits) = total encoded payload size on the wire,
//   latency             = virtual time normalized so that the maximum delay
//                         between correct parties is Delta = 1.0; a protocol
//                         finishing at time R therefore ran in R "rounds".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace apxa::net {

struct Metrics {
  /// Wire tags above this are lumped into sent_by_tag[0] (unknown).
  static constexpr std::size_t kMaxTag = 15;
  /// Rounds/instances at or above this are not attributed per round (they
  /// still count in every aggregate).  Bounds memory against byzantine
  /// payloads encoding absurd round numbers.
  static constexpr std::size_t kMaxTrackedRounds = 4096;

  std::uint64_t messages_sent = 0;      ///< logical messages (batch frames)
  std::uint64_t packets_sent = 0;       ///< physical sends (a batch is one)
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;   ///< sends by already-crashed parties
  std::uint64_t payload_bytes = 0;      ///< wire bytes (framing included)

  /// Link-layer retransmissions (socket backend only).  Physical resends of
  /// already-counted logical messages: they add NOTHING to messages_sent,
  /// packets_sent or the per-tag/round/instance counters — message
  /// complexity is a protocol property and must be loss-invariant — and are
  /// accounted separately here so the wire overhead of reliability stays
  /// visible.
  std::uint64_t packets_retransmitted = 0;  ///< packets in resent link frames
  std::uint64_t retransmit_bytes = 0;   ///< wire bytes spent on resends

  std::vector<std::uint64_t> sent_by;   ///< per-sender logical counts
  std::vector<std::uint64_t> bytes_by;  ///< per-sender wire bytes

  /// Per-wire-tag LOGICAL message counts (index = tag byte of the inner
  /// protocol frame after stripping envelope/batch framing; 0 = unknown).
  /// This is what makes protocol *phase* cost measurable — e.g. how many
  /// messages of an equalized-collect round are RB SEND/ECHO/READY vs
  /// witness REPORT traffic — without the transports knowing any protocol.
  std::array<std::uint64_t, kMaxTag + 1> sent_by_tag{};

  /// Per-round message counts.  Every protocol wire format in this codebase
  /// is [tag][round-or-instance varint]...; the varint after the tag is
  /// decoded here (and only here) to attribute the send.  Grows on demand up
  /// to kMaxTrackedRounds entries.
  std::vector<std::uint64_t> sent_by_round;

  /// Per-agreement-instance message counts, from the envelope framing of
  /// net/envelope.hpp.  Empty unless enveloped traffic was seen; same
  /// kMaxTrackedRounds growth bound.
  std::vector<std::uint64_t> sent_by_instance;

  /// Delivery-latency histogram buckets per wire tag; bucket i covers
  /// (i, i+1] / kLatencyBuckets of the transport's latency span.  The
  /// simulator fills it with virtual time send->deliver, which the
  /// (0, Delta]-clamped schedulers keep in (0, 1]; the socket runtime with
  /// wall-clock link latency in units of rt::kSocketLatencySpan.  The
  /// threaded runtime carries no send time and fills none.  It closes the
  /// observability gap between aggregate finish times and per-instance
  /// decides — per-tag tail latency under a given scheduler.
  static constexpr std::size_t kLatencyBuckets = 32;
  std::array<std::array<std::uint64_t, kLatencyBuckets>, kMaxTag + 1>
      latency_by_tag{};

  void reset(std::uint32_t n) {
    *this = Metrics{};
    sent_by.assign(n, 0);
    bytes_by.assign(n, 0);
  }

  /// Account one physical send: one packet, its wire bytes, and one logical
  /// message per batch frame it carries (per-tag, per-round, per-instance,
  /// and per-sender if sent_by/bytes_by are sized).  net::Outbox calls this
  /// on the sender's own slot, from the thread running the sender; a slot
  /// leaves sent_by/bytes_by empty, and Outbox::metrics() fills them.
  void note_send(ProcessId from, std::span<const std::byte> payload);

  /// Add `o`'s counts to these, field by field: the sum of per-party slots
  /// equals accounting their sends and deliveries in one Metrics.  The
  /// per-round and per-instance tables take the longer length, as one
  /// Metrics grown by both streams would.
  void merge(const Metrics& o);

  /// Account link-layer retransmissions: `packets` transport packets resent
  /// in datagrams of `wire_bytes` in all (see packets_retransmitted).  Never
  /// touches logical counters.
  void note_retransmit(std::uint64_t packets, std::size_t wire_bytes) {
    packets_retransmitted += packets;
    retransmit_bytes += wire_bytes;
  }

  /// Account one packet delivery's latency: one histogram sample per logical
  /// frame the packet carries, attributed to the frame's wire tag (envelope
  /// framing stripped; unknown tags land in bucket row 0).
  void note_delivery(std::span<const std::byte> payload, double latency);

  /// Latency quantile (q in [0, 1]) for one tag row, linearly interpolated
  /// inside the winning bucket; 0.0 when the row has no samples.
  [[nodiscard]] double latency_quantile(std::size_t tag, double q) const;

  /// Samples recorded for one tag row.
  [[nodiscard]] std::uint64_t latency_samples(std::size_t tag) const;

  [[nodiscard]] std::uint64_t payload_bits() const { return payload_bytes * 8; }

  /// Batching efficiency: logical messages per physical packet (1.0 when
  /// batching is off; >1 when flushes pack multiple frames).  Retransmitted
  /// packets are excluded from the denominator — they re-send frames already
  /// counted once, so including them would make batching look better (or
  /// worse) under loss than the protocol's actual packing.
  [[nodiscard]] double msgs_per_packet() const {
    return packets_sent == 0
               ? 0.0
               : static_cast<double>(messages_sent) /
                     static_cast<double>(packets_sent);
  }

  /// Packets resent per original packet (0.0 off the socket backend or at
  /// 0% effective loss).
  [[nodiscard]] double retransmit_rate() const {
    return packets_sent == 0
               ? 0.0
               : static_cast<double>(packets_retransmitted) /
                     static_cast<double>(packets_sent);
  }

 private:
  void note_logical(ProcessId from, std::span<const std::byte> frame);
  /// Tag of a protocol frame (envelope already stripped): the tag byte when
  /// it follows the [tag][varint] wire convention, else 0 (unknown).
  static std::size_t frame_tag(std::span<const std::byte> frame);
};

}  // namespace apxa::net
