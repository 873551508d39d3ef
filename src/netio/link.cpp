#include "netio/link.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace apxa::netio {

namespace {

// Lowest retransmit timeout the RTT estimate may set.  Loopback round trips
// take ~100 us; the floor keeps a run of unusually fast samples from firing
// retransmits at a receiver that merely has not been scheduled yet.
constexpr std::chrono::microseconds kRtoFloor{50};

std::uint64_t micros_since_epoch(PeerLink::TimePoint tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          tp.time_since_epoch())
          .count());
}

// Bounds-checked cursor for the TOTAL decode path.  Unlike ByteReader it
// reports overruns as `false` instead of throwing: a forged datagram must
// never reach the APXA_ENSURE failure hook (the flight recorder arms it),
// let alone unwind through the receive loop.
struct TotalReader {
  BytesView data;
  std::size_t pos = 0;

  bool get_u8(std::uint8_t& out) {
    if (pos >= data.size()) return false;
    out = static_cast<std::uint8_t>(data[pos++]);
    return true;
  }

  bool get_varint(std::uint64_t& out) { return read_varint(data, pos, out); }

  [[nodiscard]] BytesView rest() const { return data.subspan(pos); }
};

}  // namespace

void LinkStats::merge(const LinkStats& o) {
  data_sent += o.data_sent;
  retransmits += o.retransmits;
  data_received += o.data_received;
  delivered += o.delivered;
  duplicates_dropped += o.duplicates_dropped;
  acks_sent += o.acks_sent;
  acks_received += o.acks_received;
  malformed += o.malformed;
  unacked_peak = std::max(unacked_peak, o.unacked_peak);
  wire.sends += o.wire.sends;
  wire.recvs += o.wire.recvs;
  wire.recvs_empty += o.wire.recvs_empty;
  wire.waits += o.wire.waits;
}

std::size_t packet_list_size(std::span<const BytesView> packets) {
  std::size_t size = varint_size(packets.size());
  for (const BytesView p : packets) size += varint_size(p.size()) + p.size();
  return size;
}

std::size_t packets_that_fit(std::span<const BytesView> packets,
                             std::size_t budget) {
  std::size_t entries = 0;  // bytes of the first k entries
  std::size_t k = 0;
  for (; k < packets.size(); ++k) {
    const std::size_t entry = varint_size(packets[k].size()) + packets[k].size();
    if (k > 0 && varint_size(k + 1) + entries + entry > budget) break;
    entries += entry;
  }
  return k;
}

PeerLink::PeerLink(LinkConfig cfg) : cfg_(cfg) {
  APXA_ENSURE(cfg_.max_unacked >= 1, "link resend queue must hold >= 1 frame");
  APXA_ENSURE(cfg_.max_acks_per_frame >= 1 &&
                  cfg_.max_acks_per_frame <= kMaxAcksDecode,
              "ack cap out of range");
  APXA_ENSURE(cfg_.rto_initial.count() > 0 && cfg_.rto_max >= cfg_.rto_initial,
              "bad retransmission timeouts");
}

Bytes PeerLink::encode_data(std::uint64_t seq, BytesView list,
                            TimePoint now) {
  const std::size_t n_acks =
      std::min<std::size_t>(pending_acks_.size(), cfg_.max_acks_per_frame);
  // Tag, three varints of at most 10 bytes each, the acks, the packet list.
  ByteWriter w(1 + 10 * (3 + n_acks) + list.size());
  w.put_u8(kDataTag);
  w.put_varint(seq);
  w.put_varint(micros_since_epoch(now));
  w.put_varint(n_acks);
  for (std::size_t i = 0; i < n_acks; ++i) w.put_varint(pending_acks_[i]);
  pending_acks_.erase(
      pending_acks_.begin(),
      pending_acks_.begin() + static_cast<std::ptrdiff_t>(n_acks));
  stats_.acks_sent += n_acks;
  w.put_bytes(list);
  return std::move(w).take();
}

void PeerLink::note_unacked_peak() {
  stats_.unacked_peak =
      std::max<std::uint64_t>(stats_.unacked_peak, unacked_.size());
}

std::size_t PeerLink::frame_fit(std::span<const BytesView> packets) const {
  // The DATA header at its largest: tag, three varints, the most acks one
  // frame piggybacks, each at most 10 bytes.
  const std::size_t header = 1 + 10 * (3 + cfg_.max_acks_per_frame);
  return packets_that_fit(packets, kMaxDatagram - header);
}

Bytes PeerLink::make_data(std::span<const BytesView> packets, TimePoint now) {
  APXA_ENSURE(has_capacity(), "perfect link resend queue full (pump acks)");
  APXA_ENSURE(!packets.empty() && frame_fit(packets) == packets.size(),
              "a DATA frame carries 1..frame_fit packets");
  const std::uint64_t seq = next_seq_++;
  InFlight f;
  ByteWriter list(packet_list_size(packets));
  list.put_varint(packets.size());
  for (const BytesView p : packets) {
    list.put_varint(p.size());
    list.put_bytes(p);
  }
  f.list = std::move(list).take();
  f.packets = packets.size();
  f.sent = now;
  Bytes dgram = encode_data(seq, f.list, now);
  unacked_.emplace_back(seq, std::move(f));
  note_unacked_peak();
  ++stats_.data_sent;
  return dgram;
}

void PeerLink::ack_one(std::uint64_t seq, TimePoint now) {
  ++stats_.acks_received;
  const auto it =
      std::find_if(unacked_.begin(), unacked_.end(),
                   [seq](const auto& e) { return e.first == seq; });
  if (it == unacked_.end()) return;
  // Karn's rule: only a frame sent once says which transmission was acked.
  if (it->second.resent == 0 && now >= it->second.sent) {
    sample_rtt(now - it->second.sent);
  }
  unacked_.erase(it);
}

void PeerLink::sample_rtt(Clock::duration rtt) {
  // RFC 6298 section 2: the first sample seeds SRTT and RTTVAR, later ones
  // are folded in with gains 1/8 and 1/4.
  if (!rtt_sampled_) {
    rtt_sampled_ = true;
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    return;
  }
  const Clock::duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + rtt) / 8;
}

std::optional<PeerLink::Clock::duration> PeerLink::srtt() const {
  if (!rtt_sampled_) return std::nullopt;
  return srtt_;
}

std::optional<PeerLink::Clock::duration> PeerLink::rttvar() const {
  if (!rtt_sampled_) return std::nullopt;
  return rttvar_;
}

PeerLink::TimePoint PeerLink::deadline(const InFlight& f) const {
  const Clock::duration cap = cfg_.rto_max;
  Clock::duration rto =
      rtt_sampled_ ? std::max<Clock::duration>(kRtoFloor, 2 * srtt_)
                   : Clock::duration(cfg_.rto_initial);
  for (unsigned i = 0; i < f.resent && rto < cap; ++i) rto *= 2;
  return f.sent + std::min(rto, cap);
}

void PeerLink::on_datagram(BytesView dgram, TimePoint now,
                           std::vector<Delivered>& out) {
  TotalReader rd{dgram};
  // Two-phase parse: the whole ack list is read into a scratch vector, the
  // packet list is walked without side effects, and the acks are applied
  // only once the frame has fully validated.  Applying acks while still
  // parsing would let a forged frame with a truncated ack or packet list
  // mutate the resend queue before being counted malformed — a
  // partially-consumed datagram is a state change the "malformed input is
  // ignored" contract forbids (regressions:
  // PeerLink.TruncatedAckListLeavesQueueIntact,
  // PeerLink.OverrunPacketLengthLeavesQueueAndAcksIntact).
  std::vector<std::uint64_t> acks;
  const auto parse_acks = [&rd, &acks](std::uint64_t n) {
    acks.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t seq = 0;
      if (!rd.get_varint(seq)) return false;
      acks.push_back(seq);
    }
    return true;
  };
  const auto apply_acks = [this, &acks, now] {
    for (std::uint64_t seq : acks) ack_one(seq, now);
  };
  std::uint8_t tag = 0;
  if (!rd.get_u8(tag)) {
    ++stats_.malformed;
    return;
  }
  if (tag == kAckTag) {
    std::uint64_t n_acks = 0;
    if (!rd.get_varint(n_acks) || n_acks > kMaxAcksDecode ||
        !parse_acks(n_acks) || rd.rest().size() != 0) {
      ++stats_.malformed;
      return;
    }
    apply_acks();
    return;
  }
  if (tag != kDataTag) {
    ++stats_.malformed;
    return;
  }
  std::uint64_t seq = 0;
  std::uint64_t sent_us = 0;
  std::uint64_t n_acks = 0;
  std::size_t n_packets = 0;
  if (!rd.get_varint(seq) || seq == 0 || !rd.get_varint(sent_us) ||
      !rd.get_varint(n_acks) || n_acks > kMaxAcksDecode ||
      !parse_acks(n_acks) ||
      !for_each_packet(rd.rest(), [&n_packets](BytesView) { ++n_packets; }) ||
      n_packets == 0) {  // the encoder never writes an empty list
    ++stats_.malformed;
    return;
  }
  apply_acks();
  ++stats_.data_received;
  last_seq_seen_ = std::max(last_seq_seen_, seq);

  // Ack every receipt, duplicate or not — the original ack may be the very
  // datagram the network lost.
  pending_acks_.push_back(seq);

  if (seq <= contiguous_ || out_of_order_.contains(seq)) {
    ++stats_.duplicates_dropped;
    return;
  }
  out_of_order_.insert(seq);
  while (out_of_order_.contains(contiguous_ + 1)) {
    out_of_order_.erase(contiguous_ + 1);
    ++contiguous_;
  }

  Delivered d;
  const BytesView list = rd.rest();
  d.packets.assign(list.begin(), list.end());
  const std::uint64_t now_us = micros_since_epoch(now);
  d.latency_s =
      now_us >= sent_us ? static_cast<double>(now_us - sent_us) * 1e-6 : 0.0;
  stats_.delivered += n_packets;
  out.push_back(std::move(d));
}

std::size_t PeerLink::collect_retransmits(TimePoint now,
                                          std::vector<Bytes>& out) {
  std::size_t packets = 0;
  for (auto& [seq, f] : unacked_) {
    if (deadline(f) > now) continue;
    f.sent = now;
    ++f.resent;
    ++stats_.retransmits;
    packets += f.packets;
    out.push_back(encode_data(seq, f.list, now));
  }
  return packets;
}

std::optional<Bytes> PeerLink::take_ack_frame() {
  if (pending_acks_.empty()) return std::nullopt;
  ByteWriter w;
  w.put_u8(kAckTag);
  const std::size_t n_acks =
      std::min<std::size_t>(pending_acks_.size(), cfg_.max_acks_per_frame);
  w.put_varint(n_acks);
  for (std::size_t i = 0; i < n_acks; ++i) w.put_varint(pending_acks_[i]);
  pending_acks_.erase(
      pending_acks_.begin(),
      pending_acks_.begin() + static_cast<std::ptrdiff_t>(n_acks));
  stats_.acks_sent += n_acks;
  return std::move(w).take();
}

PeerLink::TimePoint PeerLink::next_deadline() const {
  TimePoint earliest = TimePoint::max();
  for (const auto& [seq, f] : unacked_) {
    earliest = std::min(earliest, deadline(f));
  }
  return earliest;
}

}  // namespace apxa::netio
