// Instance-multiplexed wire envelope and batch framing.
//
// One agreement instance per network is demo scale; AA-as-a-service means
// many concurrent instances share one transport.  Two frame formats make
// that possible without the transports knowing any protocol:
//
//   ENVELOPE : [tag 11][instance varint][inner frame bytes...]
//              One protocol message (any core/codec.hpp format, tags 1..10)
//              scoped to an agreement instance.  The inner frame extends to
//              the end of the envelope, so single-message envelopes cost
//              2..6 bytes of framing.
//   BATCH    : [tag 12][count varint]([len varint][frame bytes])...
//              Up to kMaxBatchFrames logical frames packed into one packet
//              (modeled on the <=8-messages-per-UDP-packet packing of real
//              perfect-link implementations).  Inner frames are envelopes or
//              legacy messages, never batches (no recursion).
//
// Tag bytes 11/12 extend the [tag][varint] convention of core/codec.hpp, so
// net::Metrics can attribute LOGICAL messages (envelopes) — not packets —
// per tag, per round and per instance without decoding any protocol.
//
// All decoders are TOTAL: any byte sequence — including truncated, overlong
// or recursively nested frames forged by byzantine peers — decodes to a
// value or nullopt, never an exception.  Decoded views alias the input
// buffer (zero copy on the delivery hot path); callers keep the packet alive
// while using them.
//
// One parser, two faces.  detail::parse_batch is the only batch parser; it
// never allocates or throws.  for_each_frame runs it to hand each logical
// frame of a packet to a visitor, allocation free — the face every transport
// and net::Metrics use per message.  decode_batch and unpack_packet collect
// the same frames into a vector for callers that want one (tests, fuzz
// targets, offline replay).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "net/process.hpp"

namespace apxa::net {

/// Wire tag of a single instance-scoped envelope frame.
inline constexpr std::uint8_t kEnvelopeTag = 11;
/// Wire tag of a multi-frame batch packet.
inline constexpr std::uint8_t kBatchTag = 12;

/// Send-side packing cap: a flush never packs more than this many logical
/// frames into one batch packet.
inline constexpr std::uint32_t kMaxBatchFrames = 8;
/// Decode-side bound (byzantine peers forge their own counts); generous so
/// foreign implementations with bigger packets still parse, small enough to
/// bound per-packet work.
inline constexpr std::uint32_t kMaxBatchDecodeFrames = 64;

/// A decoded envelope: which instance, and a view of the inner frame
/// (aliases the encoded buffer — zero copy).
struct EnvelopeView {
  std::uint32_t instance = 0;
  BytesView payload;
};

/// Frame one protocol message for instance `instance`.
Bytes encode_envelope(std::uint32_t instance, BytesView inner);

/// encode_envelope into one shared Payload buffer.
Payload envelope_payload(std::uint32_t instance, BytesView inner);

/// The Context an instance's protocol process sees inside a multiplexed
/// session: every send is framed in the instance's envelope on its way to
/// the party's transport context.  Header and inner frame are written into
/// one buffer that all receivers of a multicast share.
class EnvelopeContext final : public Context {
 public:
  EnvelopeContext(Context& outer, std::uint32_t instance)
      : outer_(outer), instance_(instance) {}

  using Context::multicast;
  using Context::send;
  void send(ProcessId to, Payload payload) override {
    outer_.send(to, envelope_payload(instance_, payload));
  }
  void multicast(Payload payload) override {
    outer_.multicast(envelope_payload(instance_, payload));
  }
  [[nodiscard]] ProcessId self() const override { return outer_.self(); }
  [[nodiscard]] SystemParams params() const override { return outer_.params(); }

 private:
  Context& outer_;
  std::uint32_t instance_;
};

/// Total decoder; nullopt unless `frame` is [kEnvelopeTag][varint][>=1 byte].
std::optional<EnvelopeView> decode_envelope(BytesView frame);

/// True when the first byte of `frame` is the envelope tag (cheap routing
/// test; decode_envelope still validates the rest).
bool is_envelope(BytesView frame);

/// Pack `frames` (each an envelope or legacy message, NOT a batch) into one
/// batch packet.  Requires 1 <= |frames| <= kMaxBatchFrames and every frame
/// non-empty.  The packet is one allocation; detail::write_batch encodes
/// the same bytes from views of any frame type (net::Outbox's payloads).
Bytes encode_batch(std::span<const Bytes> frames);

/// Total decoder; nullopt unless `packet` is a well-formed batch whose inner
/// frames are all non-empty, non-batch, and exactly fill the packet.  Views
/// alias `packet`.
std::optional<std::vector<BytesView>> decode_batch(BytesView packet);

namespace detail {

/// The batch parser: walks `packet` (which must start with kBatchTag) and
/// calls `emit(frame)` for each inner frame.  Returns false at the first
/// malformation — count 0 or above kMaxBatchDecodeFrames, a truncated or
/// zero length, a nested batch, trailing bytes — after emitting the frames
/// before it, so callers that need all-or-nothing validate with a no-op
/// emit first.  Never allocates, never throws.
template <class Emit>
bool parse_batch(BytesView packet, Emit&& emit) {
  std::size_t pos = 1;  // past the tag
  std::uint64_t count = 0;
  if (!read_varint(packet, pos, count)) return false;
  if (count == 0 || count > kMaxBatchDecodeFrames) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    if (!read_varint(packet, pos, len)) return false;
    if (len == 0 || len > packet.size() - pos) return false;
    const BytesView frame = packet.subspan(pos, len);
    if (static_cast<std::uint8_t>(frame[0]) == kBatchTag) return false;  // no recursion
    emit(frame);
    pos += len;
  }
  return pos == packet.size();
}

/// Encoded size of the envelope of `inner`, which must be non-empty.
inline std::size_t envelope_size(std::uint32_t instance, BytesView inner) {
  APXA_ENSURE(!inner.empty(), "cannot envelope an empty frame");
  return 1 + varint_size(instance) + inner.size();
}

inline bool is_batch(BytesView packet) {
  return !packet.empty() && static_cast<std::uint8_t>(packet[0]) == kBatchTag;
}

/// Encoded size of the batch packet of `frames` (each convertible to
/// BytesView), checking encode_batch's requirements.
template <class Frame>
std::size_t batch_size(std::span<const Frame> frames) {
  APXA_ENSURE(!frames.empty() && frames.size() <= kMaxBatchFrames,
              "batch packs 1..kMaxBatchFrames frames");
  std::size_t size = 1 + varint_size(frames.size());
  for (const Frame& frame : frames) {
    const BytesView f = frame;
    APXA_ENSURE(!f.empty(), "cannot batch an empty frame");
    APXA_ENSURE(static_cast<std::uint8_t>(f[0]) != kBatchTag, "batches do not nest");
    size += varint_size(f.size()) + f.size();
  }
  return size;
}

/// Writes the envelope of `inner` to `out`, which holds
/// envelope_size(instance, inner) bytes.
inline void write_envelope(std::uint32_t instance, BytesView inner, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(kEnvelopeTag);
  w.put_varint(instance);
  w.put_bytes(inner);
}

/// Writes the batch packet of `frames` to `out`, which holds batch_size(frames)
/// bytes.
template <class Frame>
void write_batch(std::span<const Frame> frames, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(kBatchTag);
  w.put_varint(frames.size());
  for (const Frame& frame : frames) {
    const BytesView f = frame;
    w.put_varint(f.size());
    w.put_bytes(f);
  }
}

}  // namespace detail

/// Visit every logical frame of any packet, in order, without allocating: a
/// well-formed batch yields its inner frames, anything else (envelope,
/// legacy message, or a malformed batch) yields itself.  A forged batch thus
/// costs its sender one junk delivery that the total protocol decoders
/// downstream reject, never a crash.  Views alias `packet`.
template <class Visit>
void for_each_frame(BytesView packet, Visit&& visit) {
  if (detail::is_batch(packet) &&
      detail::parse_batch(packet, [](BytesView) {})) {
    detail::parse_batch(packet, visit);
    return;
  }
  visit(packet);
}

/// for_each_frame collected into a vector (allocates; off the hot path).
std::vector<BytesView> unpack_packet(BytesView packet);

}  // namespace apxa::net
