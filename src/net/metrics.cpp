#include "net/metrics.hpp"

#include "net/envelope.hpp"

namespace apxa::net {

void Metrics::note_send(ProcessId from, std::span<const std::byte> payload) {
  ++packets_sent;
  payload_bytes += payload.size();
  if (from < bytes_by.size()) bytes_by[from] += payload.size();

  // A batch packet carries several logical messages; everything else (an
  // envelope or a bare protocol frame) is one.  for_each_frame is total, so
  // a forged batch simply counts as one unknown-tag message.
  for_each_frame(payload, [&](BytesView frame) { note_logical(from, frame); });
}

namespace {

void add_counts(std::vector<std::uint64_t>& into, const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

void Metrics::merge(const Metrics& o) {
  messages_sent += o.messages_sent;
  packets_sent += o.packets_sent;
  messages_delivered += o.messages_delivered;
  messages_dropped += o.messages_dropped;
  payload_bytes += o.payload_bytes;
  packets_retransmitted += o.packets_retransmitted;
  retransmit_bytes += o.retransmit_bytes;
  add_counts(sent_by, o.sent_by);
  add_counts(bytes_by, o.bytes_by);
  for (std::size_t t = 0; t <= kMaxTag; ++t) {
    sent_by_tag[t] += o.sent_by_tag[t];
    for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
      latency_by_tag[t][b] += o.latency_by_tag[t][b];
    }
  }
  add_counts(sent_by_round, o.sent_by_round);
  add_counts(sent_by_instance, o.sent_by_instance);
}

std::size_t Metrics::frame_tag(std::span<const std::byte> frame) {
  // Tag attribution from the shared wire convention
  // [tag][round-or-instance varint] (core/codec.hpp).  Unknown or malformed
  // payloads land in bucket 0 — metrics never throw.
  if (frame.empty()) return 0;
  const auto raw = static_cast<std::uint8_t>(frame[0]);
  if (raw >= 1 && raw <= kMaxTag && raw != kEnvelopeTag && raw != kBatchTag) {
    return raw;
  }
  return 0;
}

void Metrics::note_delivery(std::span<const std::byte> payload, double latency) {
  std::size_t bucket = 0;
  if (latency > 0.0) {
    bucket = static_cast<std::size_t>(latency * kLatencyBuckets);
    if (latency * kLatencyBuckets == static_cast<double>(bucket)) --bucket;
    if (bucket >= kLatencyBuckets) bucket = kLatencyBuckets - 1;
  }
  for_each_frame(payload, [&](BytesView frame) {
    if (is_envelope(frame)) {
      const auto env = decode_envelope(frame);
      if (!env) {
        ++latency_by_tag[0][bucket];
        return;
      }
      frame = env->payload;
    }
    ++latency_by_tag[frame_tag(frame)][bucket];
  });
}

std::uint64_t Metrics::latency_samples(std::size_t tag) const {
  if (tag > kMaxTag) return 0;
  std::uint64_t total = 0;
  for (const std::uint64_t c : latency_by_tag[tag]) total += c;
  return total;
}

double Metrics::latency_quantile(std::size_t tag, double q) const {
  if (tag > kMaxTag) return 0.0;
  const std::uint64_t total = latency_samples(tag);
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  constexpr double kWidth = 1.0 / static_cast<double>(kLatencyBuckets);
  double cum = 0.0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    const auto c = static_cast<double>(latency_by_tag[tag][b]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double frac = c == 0.0 ? 1.0 : (target - cum) / c;
      return (static_cast<double>(b) + frac) * kWidth;
    }
    cum += c;
  }
  return 1.0;
}

void Metrics::note_logical(ProcessId from, std::span<const std::byte> frame) {
  ++messages_sent;
  if (from < sent_by.size()) ++sent_by[from];

  // Strip the instance envelope (if any) and attribute the instance.
  if (is_envelope(frame)) {
    const auto env = decode_envelope(frame);
    if (!env) {
      ++sent_by_tag[0];  // malformed envelope: unknown
      return;
    }
    if (env->instance < kMaxTrackedRounds) {
      if (sent_by_instance.size() <= env->instance) {
        sent_by_instance.resize(env->instance + 1, 0);
      }
      ++sent_by_instance[env->instance];
    }
    frame = env->payload;
  }

  const std::size_t tag = frame_tag(frame);
  ++sent_by_tag[tag];
  if (tag == 0) return;

  std::uint64_t round = 0;
  int shift = 0;
  for (std::size_t i = 1; i < frame.size() && shift < 64; ++i, shift += 7) {
    const auto b = static_cast<std::uint8_t>(frame[i]);
    round |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      if (round < kMaxTrackedRounds) {
        if (sent_by_round.size() <= round) sent_by_round.resize(round + 1, 0);
        ++sent_by_round[round];
      }
      return;
    }
  }
}

}  // namespace apxa::net
