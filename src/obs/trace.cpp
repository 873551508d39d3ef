#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>

namespace apxa::obs {
namespace {

std::uint64_t next_sink_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t cap = 1;
  while (cap < v) cap <<= 1;
  return cap;
}

}  // namespace

const char* kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kSend: return "send";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kDrop: return "drop";
    case EventKind::kCrash: return "crash";
    case EventKind::kRoundAdvance: return "round_advance";
    case EventKind::kViewFreeze: return "view_freeze";
    case EventKind::kInstanceFinish: return "instance_finish";
    case EventKind::kClaim: return "claim";
    case EventKind::kSteal: return "steal";
    case EventKind::kIdle: return "idle";
    case EventKind::kRetransmit: return "retransmit";
  }
  return "unknown";
}

bool is_protocol_event(EventKind k) noexcept {
  return k <= EventKind::kInstanceFinish;
}

thread_local TraceSink::TlSlot TraceSink::tl_slot_;

TraceSink::TraceSink(std::size_t ring_capacity)
    : id_(next_sink_id()),
      capacity_(round_up_pow2(std::max<std::size_t>(ring_capacity, 64))) {}

TraceSink::~TraceSink() = default;

TraceSink::Ring* TraceSink::ring_slow() noexcept {
  const auto tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  Ring* ring = nullptr;
  for (auto& [owner, r] : rings_) {
    if (owner == tid) {
      ring = r.get();
      break;
    }
  }
  if (ring == nullptr) {
    rings_.emplace_back(tid, std::make_unique<Ring>(capacity_));
    ring = rings_.back().second.get();
  }
  tl_slot_.sink_id = id_;
  tl_slot_.ring = ring;
  return ring;
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [owner, r] : rings_) {
      const std::uint64_t count =
          std::min<std::uint64_t>(r->head, r->buf.size());
      out.reserve(out.size() + count);
      for (std::uint64_t i = r->head - count; i < r->head; ++i) {
        out.push_back(r->buf[i & r->mask]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  return out;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t lost = 0;
  for (const auto& [owner, r] : rings_) {
    if (r->head > r->buf.size()) lost += r->head - r->buf.size();
  }
  return lost;
}

std::vector<TraceEvent> protocol_events(const std::vector<TraceEvent>& events) {
  std::vector<TraceEvent> out;
  for (const auto& e : events) {
    if (is_protocol_event(e.kind)) out.push_back(e);
  }
  return out;
}

std::uint64_t protocol_digest(const std::vector<TraceEvent>& events) {
  constexpr std::uint64_t kOffset = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= kPrime;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const auto& e : events) {
    if (!is_protocol_event(e.kind)) continue;
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.party);
    mix(e.peer);
    mix(static_cast<std::uint64_t>(e.round));
    mix_double(e.value);
    mix_double(e.vtime);
  }
  return h;
}

}  // namespace apxa::obs
