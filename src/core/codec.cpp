#include "core/codec.hpp"

namespace apxa::core {

namespace {

bool type_in(MsgType t, std::initializer_list<MsgType> set) {
  for (MsgType s : set) {
    if (t == s) return true;
  }
  return false;
}

}  // namespace

// Decoders are TOTAL: every byte sequence yields a message or nullopt,
// never an exception.  They run on raw network input inside honest parties'
// message loops (and scheduler probes), where a byzantine peer controls the
// bytes — a truncated frame that threw would crash every correct process.
// detail::total_decode (codec.hpp) translates ByteReader overruns.
using detail::total_decode;

std::optional<MsgType> peek_type(BytesView payload) {
  if (payload.empty()) return std::nullopt;
  const auto raw = static_cast<std::uint8_t>(payload[0]);
  if (raw < 1 || raw > 10) return std::nullopt;
  return static_cast<MsgType>(raw);
}

namespace {

std::size_t round_size(const RoundMsg& m) {
  return 1 + varint_size(m.round) + 8 + varint_size(m.budget);
}

void write_round(const RoundMsg& m, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kRound));
  w.put_varint(m.round);
  w.put_f64(m.value);
  w.put_varint(m.budget);
}

std::size_t done_size(const DoneMsg& m) { return 1 + varint_size(m.round) + 8; }

void write_done(const DoneMsg& m, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kDone));
  w.put_varint(m.round);
  w.put_f64(m.value);
}

}  // namespace

Bytes encode_round(const RoundMsg& m) {
  Bytes frame(round_size(m));
  write_round(m, frame.data());
  return frame;
}

net::Payload round_payload(const RoundMsg& m) {
  return net::Payload::build(round_size(m),
                             [&m](std::byte* out) { write_round(m, out); });
}

std::optional<RoundMsg> decode_round(BytesView payload) {
  if (peek_type(payload) != MsgType::kRound) return std::nullopt;
  return total_decode([&]() -> std::optional<RoundMsg> {
    ByteReader r(payload);
    r.get_u8();
    RoundMsg m;
    m.round = static_cast<Round>(r.get_varint());
    m.value = r.get_f64();
    m.budget = static_cast<std::uint32_t>(r.get_varint());
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_done(const DoneMsg& m) {
  Bytes frame(done_size(m));
  write_done(m, frame.data());
  return frame;
}

net::Payload done_payload(const DoneMsg& m) {
  return net::Payload::build(done_size(m),
                             [&m](std::byte* out) { write_done(m, out); });
}

std::optional<DoneMsg> decode_done(BytesView payload) {
  if (peek_type(payload) != MsgType::kDone) return std::nullopt;
  return total_decode([&]() -> std::optional<DoneMsg> {
    ByteReader r(payload);
    r.get_u8();
    DoneMsg m;
    m.round = static_cast<Round>(r.get_varint());
    m.value = r.get_f64();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

namespace {

std::size_t rb_size(const RbMsg& m) {
  return 1 + varint_size(m.instance) + varint_size(m.origin) + 8;
}

void write_rb(const RbMsg& m, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(static_cast<std::uint8_t>(m.type));
  w.put_varint(m.instance);
  w.put_varint(m.origin);
  w.put_f64(m.value);
}

std::size_t rb_vec_size(const RbVecMsg& m) {
  return 1 + varint_size(m.instance) + varint_size(m.origin) +
         varint_size(m.value.size()) + 8 * m.value.size();
}

void write_rb_vec(const RbVecMsg& m, std::byte* out) {
  SpanWriter w(out);
  w.put_u8(static_cast<std::uint8_t>(m.type));
  w.put_varint(m.instance);
  w.put_varint(m.origin);
  w.put_varint(m.value.size());
  for (double x : m.value) w.put_f64(x);
}

}  // namespace

Bytes encode_rb(const RbMsg& m) {
  Bytes frame(rb_size(m));
  write_rb(m, frame.data());
  return frame;
}

net::Payload rb_payload(const RbMsg& m) {
  return net::Payload::build(rb_size(m), [&m](std::byte* out) { write_rb(m, out); });
}

std::optional<RbMsg> decode_rb(BytesView payload) {
  const auto t = peek_type(payload);
  if (!t || !type_in(*t, {MsgType::kRbSend, MsgType::kRbEcho, MsgType::kRbReady})) {
    return std::nullopt;
  }
  return total_decode([&]() -> std::optional<RbMsg> {
    ByteReader r(payload);
    r.get_u8();
    RbMsg m;
    m.type = *t;
    m.instance = static_cast<std::uint32_t>(r.get_varint());
    m.origin = static_cast<ProcessId>(r.get_varint());
    m.value = r.get_f64();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_report(const ReportMsg& m) {
  ByteWriter w(1 + varint_size(m.iter) + varint_size(m.have.size()) +
               (m.have.size() + 7) / 8);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReport));
  w.put_varint(m.iter);
  w.put_bits(m.have);
  return std::move(w).take();
}

std::optional<ReportMsg> decode_report(BytesView payload) {
  if (peek_type(payload) != MsgType::kReport) return std::nullopt;
  return total_decode([&]() -> std::optional<ReportMsg> {
    ByteReader r(payload);
    r.get_u8();
    ReportMsg m;
    m.iter = static_cast<std::uint32_t>(r.get_varint());
    m.have = r.get_bits();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

Bytes encode_rb_vec(const RbVecMsg& m) {
  Bytes frame(rb_vec_size(m));
  write_rb_vec(m, frame.data());
  return frame;
}

net::Payload rb_vec_payload(const RbVecMsg& m) {
  return net::Payload::build(rb_vec_size(m),
                             [&m](std::byte* out) { write_rb_vec(m, out); });
}

std::optional<RbVecMsg> decode_rb_vec(BytesView payload) {
  const auto t = peek_type(payload);
  if (!t || !type_in(*t, {MsgType::kRbVecSend, MsgType::kRbVecEcho,
                          MsgType::kRbVecReady})) {
    return std::nullopt;
  }
  return total_decode([&]() -> std::optional<RbVecMsg> {
    ByteReader r(payload);
    r.get_u8();
    RbVecMsg m;
    m.type = *t;
    m.instance = static_cast<std::uint32_t>(r.get_varint());
    m.origin = static_cast<ProcessId>(r.get_varint());
    const std::uint64_t dim = r.get_varint();
    if (dim == 0 || dim > (1u << 16) || r.remaining() != 8 * dim) {
      return std::nullopt;
    }
    m.value.resize(dim);
    for (std::uint64_t c = 0; c < dim; ++c) m.value[c] = r.get_f64();
    if (!r.done()) return std::nullopt;
    return m;
  });
}

sched::ProbeFn round_probe() {
  return [](BytesView payload) -> std::optional<sched::ValueProbe> {
    const auto m = decode_round(payload);
    if (!m) return std::nullopt;
    return sched::ValueProbe{m->round, m->value};
  };
}

}  // namespace apxa::core
