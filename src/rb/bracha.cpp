#include "rb/bracha.hpp"

#include <bit>
#include <cstring>

#include "common/ensure.hpp"

namespace apxa::rb {

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
typename BasicBrachaHub<Value>::Slot& BasicBrachaHub<Value>::slot(
    std::uint32_t instance, ProcessId origin) {
  if (last_block_ == nullptr || last_instance_ != instance) {
    auto [it, fresh] = blocks_.try_emplace(instance);
    Block& b = it->second;
    if (fresh) {
      b.slots.resize(params_.n);
      b.voters.assign(2 * words_ * params_.n, 0);
      for (std::size_t o = 0; o < params_.n; ++o) {
        b.slots[o].voters = b.voters.data() + 2 * words_ * o;
      }
    }
    last_instance_ = instance;
    last_block_ = &b;
  }
  return last_block_->slots[origin];
}

template <class Value>
void BasicBrachaHub<Value>::broadcast(net::Context& ctx, std::uint32_t instance,
                                      const Value& value) {
  const ProcessId self = ctx.self();
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kSend, instance, self, value));
  // Process our own SEND locally: echo it.
  send_echo(ctx, instance, self, slot(instance, self), value);
}

template <class Value>
void BasicBrachaHub<Value>::send_echo(net::Context& ctx, std::uint32_t instance,
                                      ProcessId origin, Slot& s,
                                      const Value& value) {
  if (s.echoed) return;
  s.echoed = true;
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kEcho, instance, origin, value));
  add_echo(ctx, instance, origin, s, ctx.self(), value);
}

template <class Value>
void BasicBrachaHub<Value>::send_ready(net::Context& ctx, std::uint32_t instance,
                                       ProcessId origin, Slot& s,
                                       const Value& value) {
  if (s.ready_sent) return;
  s.ready_sent = true;
  ctx.multicast(RbWire<Value>::encode(RbWire<Value>::kReady, instance, origin, value));
  add_ready(ctx, instance, origin, s, ctx.self(), value);
}

template <class Value>
void BasicBrachaHub<Value>::add_echo(net::Context& ctx, std::uint32_t instance,
                                     ProcessId origin, Slot& s, ProcessId voter,
                                     const Value& value) {
  // First vote per voter wins (see Slot): caps the state a vote-flooding
  // byzantine can create, and costs honest traffic nothing.
  if (!first_vote(s.voters, voter)) return;
  if (count_vote(s.echoes, value) >= params_.quorum()) {
    send_ready(ctx, instance, origin, s, value);
  }
}

template <class Value>
void BasicBrachaHub<Value>::add_ready(net::Context& ctx, std::uint32_t instance,
                                      ProcessId origin, Slot& s, ProcessId voter,
                                      const Value& value) {
  if (!first_vote(s.voters + words_, voter)) return;
  const std::uint32_t votes = count_vote(s.readies, value);
  if (votes >= params_.t + 1) send_ready(ctx, instance, origin, s, value);
  if (votes >= 2 * params_.t + 1 && !s.delivered) {
    s.delivered = true;
    deliver_(ctx, instance, origin, value);
  }
}

template <class Value>
bool BasicBrachaHub<Value>::handle(net::Context& ctx, ProcessId from,
                                   BytesView payload) {
  const auto m = RbWire<Value>::decode(payload);
  if (!m) return false;
  handle(ctx, from, *m);
  return true;
}

template <class Value>
void BasicBrachaHub<Value>::handle(net::Context& ctx, ProcessId from,
                                   const Msg& m) {
  // Out-of-range origins are byzantine garbage, not a caller bug: discard
  // like every other malformed input (throwing here would let one forged
  // message crash every honest party).  Out-of-range senders have no voter
  // bit and are discarded the same way.
  if (m.origin >= params_.n || from >= params_.n) return;
  Slot& s = slot(m.instance, m.origin);
  if (m.type == RbWire<Value>::kSend) {
    // Authenticated channels: a SEND for origin o is only honored when it
    // arrives from o itself (byzantine parties cannot forge senders).
    if (from == m.origin) send_echo(ctx, m.instance, m.origin, s, m.value);
  } else if (m.type == RbWire<Value>::kEcho) {
    add_echo(ctx, m.instance, m.origin, s, from, m.value);
  } else {
    add_ready(ctx, m.instance, m.origin, s, from, m.value);
  }
}

template class BasicBrachaHub<double>;
template class BasicBrachaHub<std::vector<double>>;

}  // namespace apxa::rb
