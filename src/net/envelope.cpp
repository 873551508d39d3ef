#include "net/envelope.hpp"

#include <limits>

namespace apxa::net {

Bytes encode_envelope(std::uint32_t instance, BytesView inner) {
  APXA_ENSURE(!inner.empty(), "cannot envelope an empty frame");
  ByteWriter w(1 + varint_size(instance) + inner.size());
  w.put_u8(kEnvelopeTag);
  w.put_varint(instance);
  w.put_bytes(inner);
  return std::move(w).take();
}

bool is_envelope(BytesView frame) {
  return !frame.empty() && static_cast<std::uint8_t>(frame[0]) == kEnvelopeTag;
}

std::optional<EnvelopeView> decode_envelope(BytesView frame) {
  if (!is_envelope(frame)) return std::nullopt;
  std::size_t pos = 1;
  std::uint64_t instance = 0;
  if (!read_varint(frame, pos, instance)) return std::nullopt;
  if (instance > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  if (pos == frame.size()) return std::nullopt;  // envelopes carry a message
  EnvelopeView v;
  v.instance = static_cast<std::uint32_t>(instance);
  v.payload = frame.subspan(pos);
  return v;
}

Bytes encode_batch(std::span<const Bytes> frames) {
  APXA_ENSURE(!frames.empty() && frames.size() <= kMaxBatchFrames,
              "batch packs 1..kMaxBatchFrames frames");
  std::size_t size = 1 + varint_size(frames.size());
  for (const Bytes& f : frames) size += varint_size(f.size()) + f.size();
  ByteWriter w(size);
  w.put_u8(kBatchTag);
  w.put_varint(frames.size());
  for (const Bytes& f : frames) {
    APXA_ENSURE(!f.empty(), "cannot batch an empty frame");
    APXA_ENSURE(static_cast<std::uint8_t>(f[0]) != kBatchTag,
                "batches do not nest");
    w.put_varint(f.size());
    w.put_bytes(f);
  }
  return std::move(w).take();
}

std::optional<std::vector<BytesView>> decode_batch(BytesView packet) {
  if (!detail::is_batch(packet) ||
      !detail::parse_batch(packet, [](BytesView) {})) {
    return std::nullopt;
  }
  std::vector<BytesView> frames;
  detail::parse_batch(packet, [&frames](BytesView f) { frames.push_back(f); });
  return frames;
}

std::vector<BytesView> unpack_packet(BytesView packet) {
  std::vector<BytesView> frames;
  for_each_frame(packet, [&frames](BytesView f) { frames.push_back(f); });
  return frames;
}

}  // namespace apxa::net
