#include "net/envelope.hpp"

#include <limits>

namespace apxa::net {

Bytes encode_envelope(std::uint32_t instance, BytesView inner) {
  Bytes frame(detail::envelope_size(instance, inner));
  detail::write_envelope(instance, inner, frame.data());
  return frame;
}

Payload envelope_payload(std::uint32_t instance, BytesView inner) {
  return Payload::build(detail::envelope_size(instance, inner),
                        [instance, inner](std::byte* out) {
                          detail::write_envelope(instance, inner, out);
                        });
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
  Bytes packet(detail::batch_size(frames));
  detail::write_batch(frames, packet.data());
  return packet;
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
