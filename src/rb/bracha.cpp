#include "rb/bracha.hpp"

#include <bit>
#include <cstring>

#include "common/ensure.hpp"

namespace apxa::rb {

using core::MsgType;

// --- wire adapters ----------------------------------------------------------

template <>
struct RbWire<double> {
  struct Decoded {
    MsgType type;
    std::uint32_t instance;
    ProcessId origin;
    double value;
  };
  static constexpr MsgType kSend = MsgType::kRbSend;
  static constexpr MsgType kEcho = MsgType::kRbEcho;
  static constexpr MsgType kReady = MsgType::kRbReady;

  static Bytes encode(MsgType type, std::uint32_t instance, ProcessId origin,
                      const double& value) {
    return core::encode_rb(core::RbMsg{type, instance, origin, value});
  }
  static std::optional<Decoded> decode(BytesView payload) {
    const auto m = core::decode_rb(payload);
    if (!m) return std::nullopt;
    return Decoded{m->type, m->instance, m->origin, m->value};
  }
};

template <>
struct RbWire<std::vector<double>> {
  struct Decoded {
    MsgType type;
    std::uint32_t instance;
    ProcessId origin;
    std::vector<double> value;
  };
  static constexpr MsgType kSend = MsgType::kRbVecSend;
  static constexpr MsgType kEcho = MsgType::kRbVecEcho;
  static constexpr MsgType kReady = MsgType::kRbVecReady;

  static Bytes encode(MsgType type, std::uint32_t instance, ProcessId origin,
                      const std::vector<double>& value) {
    return core::encode_rb_vec(core::RbVecMsg{type, instance, origin, value});
  }
  static std::optional<Decoded> decode(BytesView payload) {
    auto m = core::decode_rb_vec(payload);
    if (!m) return std::nullopt;
    return Decoded{m->type, m->instance, m->origin, std::move(m->value)};
  }
};

// --- vote identity ----------------------------------------------------------

namespace {

// Two votes are for the same value iff their wire values are bitwise equal
// (see Slot): an equivalence for every bit pattern, NaN included.
bool same_value(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_value(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

// Count one vote for `value`; returns its new count.
template <class Value>
std::uint32_t count_vote(std::vector<std::pair<Value, std::uint32_t>>& tally,
                         const Value& value) {
  for (auto& [v, count] : tally) {
    if (same_value(v, value)) return ++count;
  }
  tally.emplace_back(value, 1);
  return 1;
}

// Set `voter`'s bit; false if it was already set (the voter has voted).
bool first_vote(std::uint64_t* bitmap, ProcessId voter) {
  std::uint64_t& word = bitmap[voter / 64];
  const std::uint64_t bit = std::uint64_t{1} << (voter % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  return true;
}

std::uint64_t key_of(std::uint32_t instance, ProcessId origin) {
  return (std::uint64_t{instance} << 32) | origin;
}

std::uint32_t instance_of(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

ProcessId origin_of(std::uint64_t key) {
  return static_cast<ProcessId>(key & 0xffffffffu);
}

}  // namespace

// --- hub --------------------------------------------------------------------

template <class Value>
BasicBrachaHub<Value>::BasicBrachaHub(SystemParams params, DeliverFn on_deliver)
    : params_(params),
      deliver_(std::move(on_deliver)),
      words_((static_cast<std::size_t>(params.n) + 63) / 64) {
  APXA_ENSURE(params_.n > 3 * params_.t, "Bracha RB requires n > 3t");
  APXA_ENSURE(deliver_ != nullptr, "delivery callback required");
}

template <class Value>
typename BasicBrachaHub<Value>::Slot& BasicBrachaHub<Value>::slot(Key key) {
  return slots_.try_emplace(key, words_).first->second;
}

template <class Value>
void BasicBrachaHub<Value>::broadcast(net::Context& ctx, std::uint32_t instance,
                                      const Value& value) {
  const Key key = key_of(instance, ctx.self());
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kSend, instance, ctx.self(),
                                      value));
  // Process our own SEND locally: echo it.
  send_echo(ctx, key, slot(key), value);
}

template <class Value>
void BasicBrachaHub<Value>::send_echo(net::Context& ctx, Key key, Slot& s,
                                      const Value& value) {
  if (s.echoed) return;
  s.echoed = true;
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kEcho, instance_of(key),
                                      origin_of(key), value));
  add_echo(ctx, key, s, ctx.self(), value);
}

template <class Value>
void BasicBrachaHub<Value>::send_ready(net::Context& ctx, Key key, Slot& s,
                                       const Value& value) {
  if (s.ready_sent) return;
  s.ready_sent = true;
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kReady, instance_of(key),
                                      origin_of(key), value));
  add_ready(ctx, key, s, ctx.self(), value);
}

template <class Value>
void BasicBrachaHub<Value>::add_echo(net::Context& ctx, Key key, Slot& s,
                                     ProcessId voter, const Value& value) {
  // First vote per voter wins (see Slot): caps the state a vote-flooding
  // byzantine can create, and costs honest traffic nothing.
  if (!first_vote(s.voters.data(), voter)) return;
  if (count_vote(s.echoes, value) >= params_.quorum()) {
    send_ready(ctx, key, s, value);
  }
}

template <class Value>
void BasicBrachaHub<Value>::add_ready(net::Context& ctx, Key key, Slot& s,
                                      ProcessId voter, const Value& value) {
  if (!first_vote(s.voters.data() + words_, voter)) return;
  const std::uint32_t votes = count_vote(s.readies, value);
  if (votes >= params_.t + 1) send_ready(ctx, key, s, value);
  if (votes >= 2 * params_.t + 1 && !s.delivered) {
    s.delivered = true;
    deliver_(ctx, instance_of(key), origin_of(key), value);
  }
}

template <class Value>
bool BasicBrachaHub<Value>::handle(net::Context& ctx, ProcessId from,
                                   BytesView payload) {
  auto m = RbWire<Value>::decode(payload);
  if (!m) return false;
  // Out-of-range origins are byzantine garbage, not a caller bug: discard
  // like every other malformed input (throwing here would let one forged
  // message crash every honest party).  Out-of-range senders have no voter
  // bit and are discarded the same way.
  if (m->origin >= params_.n || from >= params_.n) return true;
  const Key key = key_of(m->instance, m->origin);
  Slot& s = slot(key);
  if (m->type == RbWire<Value>::kSend) {
    // Authenticated channels: a SEND for origin o is only honored when it
    // arrives from o itself (byzantine parties cannot forge senders).
    if (from == m->origin) send_echo(ctx, key, s, m->value);
  } else if (m->type == RbWire<Value>::kEcho) {
    add_echo(ctx, key, s, from, m->value);
  } else {
    add_ready(ctx, key, s, from, m->value);
  }
  return true;
}

template class BasicBrachaHub<double>;
template class BasicBrachaHub<std::vector<double>>;

}  // namespace apxa::rb
