// Compact binary serialization used for every protocol message.
//
// Protocols serialize their messages into byte vectors before handing them to
// a transport.  This keeps the simulated network payload-agnostic and lets
// the metrics layer account *bits of communication* exactly the way the
// approximate-agreement literature does (message size = encoded payload).
//
// Encoding primitives:
//   - u8            : one byte
//   - varint (u64)  : LEB128, 1..10 bytes
//   - f64           : 8 bytes, little-endian IEEE-754 bit pattern
//   - bitset        : length varint + packed bits (used by witness reports)
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/ensure.hpp"

namespace apxa {

using Bytes = std::vector<std::byte>;
using BytesView = std::span<const std::byte>;

/// Encoded size of `v` as a LEB128 varint (1..10 bytes).
constexpr std::size_t varint_size(std::uint64_t v) {
  return v < 0x80 ? 1 : (static_cast<std::size_t>(std::bit_width(v)) + 6) / 7;
}

/// Non-throwing varint read under ByteReader::get_varint's rules (at most 10
/// bytes, no payload bits past bit 63).  On success stores the
/// value in `out`, advances `pos` past it and returns true; on a truncated or
/// overlong varint returns false.  For parsers that must stay total without
/// the exception path (batch framing, link frames).
inline bool read_varint(BytesView data, std::size_t& pos, std::uint64_t& out) {
  out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) return false;
    const auto b = static_cast<std::uint8_t>(data[pos++]);
    // The 10th byte can only contribute bit 63: higher payload bits would
    // wrap modulo 2^64 and let a forged overlong varint alias a small value.
    if (shift == 63 && (b & 0x7e) != 0) return false;
    out |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;  // varint too long
}

class ByteWriter {
 public:
  /// `capacity` reserves the buffer up front: encoders pass their frame's
  /// size bound so one frame costs one allocation.
  explicit ByteWriter(std::size_t capacity = 0) { buf_.reserve(capacity); }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  void put_bytes(BytesView bytes) { buf_.insert(buf_.end(), bytes.begin(), bytes.end()); }

  /// Packed bit vector; first the bit count as varint, then ceil(k/8) bytes.
  void put_bits(const std::vector<bool>& bits) {
    put_varint(bits.size());
    std::uint8_t acc = 0;
    int filled = 0;
    for (bool b : bits) {
      acc = static_cast<std::uint8_t>(acc | (static_cast<std::uint8_t>(b) << filled));
      if (++filled == 8) {
        put_u8(acc);
        acc = 0;
        filled = 0;
      }
    }
    if (filled > 0) put_u8(acc);
  }

  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

/// ByteWriter's primitives over a buffer the caller already sized exactly:
/// encoders use it to write a frame straight into the buffer that will carry
/// it (a Bytes of the frame's size, or a transport Payload).
class SpanWriter {
 public:
  explicit SpanWriter(std::byte* out) : out_(out) {}

  void put_u8(std::uint8_t v) { *out_++ = static_cast<std::byte>(v); }

  void put_varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) put_u8(static_cast<std::uint8_t>(v) | 0x80);
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  void put_bytes(BytesView bytes) {
    out_ = std::copy(bytes.begin(), bytes.end(), out_);
  }

 private:
  std::byte* out_;
};

class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t get_u8() {
    APXA_ENSURE(pos_ < data_.size(), "byte reader overrun");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    APXA_ENSURE(read_varint(data_, pos_, v),
                "varint truncated, too long or past 64 bits");
    return v;
  }

  double get_f64() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(get_u8()) << (8 * i);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<bool> get_bits() {
    const std::uint64_t count = get_varint();
    APXA_ENSURE(count <= 1u << 20, "bitset unreasonably large");
    std::vector<bool> bits(count);
    std::uint8_t acc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (i % 8 == 0) acc = get_u8();
      bits[i] = ((acc >> (i % 8)) & 1) != 0;
    }
    return bits;
  }

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace apxa
