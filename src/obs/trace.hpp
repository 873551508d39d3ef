// obs — structured run tracing.
//
// TraceSink is a low-overhead event recorder: each writer thread appends to
// its own fixed-size ring buffer, a global relaxed counter hands out
// merge-order tickets, and snapshot() (quiescent readers only) merges the
// rings back into one seq-ordered stream.  A null sink pointer is the
// disabled state: every call site guards with `if (sink) sink->record(...)`,
// so the disabled cost is one predictable branch and no function call.
//
// Determinism contract: protocol-domain events (send / deliver / drop /
// crash / round-advance / view-freeze / instance-finish) are recorded where
// they happen in the simulator's single event loop, so two sim runs of one
// config record the same protocol stream.  Executor-domain events (claim /
// steal / idle, retransmit) are timing-dependent by nature;
// protocol_events() and protocol_digest() exclude them, along with the two
// fields that cannot reproduce (wall clocks, and seq tickets interleaved
// with executor events).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace apxa::obs {

enum class EventKind : std::uint8_t {
  // Protocol domain — deterministic given the run's config and seed.
  kSend = 0,        // party -> peer packet enqueued (value = frames in packet)
  kDeliver,         // packet handed to peer (party = sender, peer = dest)
  kDrop,            // packet discarded: sender or destination crashed
  kCrash,           // party crossed its crash budget / timed crash point
  kRoundAdvance,    // party finished a protocol round (value = new estimate)
  kViewFreeze,      // collect engine froze a round view (value = view size)
  kInstanceFinish,  // multiplexed instance decided (peer = instance)
  // Executor domain — scheduling internals, excluded from identity checks.
  kClaim,       // worker popped a runnable party off its own shard
  kSteal,       // worker stole a runnable party from another shard
  kIdle,        // worker found no runnable party and waited
  kRetransmit,  // socket link layer re-sent an unacked datagram (value =
                // wire bytes); timing-dependent, hence executor-domain
};

const char* kind_name(EventKind k) noexcept;
bool is_protocol_event(EventKind k) noexcept;

struct TraceEvent {
  std::uint64_t seq = 0;      // global merge-order ticket
  EventKind kind = EventKind::kSend;
  std::uint32_t party = 0;    // acting party (worker id for executor events)
  std::uint32_t peer = 0;     // destination / victim shard / instance
  std::int64_t round = -1;    // protocol round when known, else -1
  double value = 0.0;         // kind-specific payload (see EventKind)
  double vtime = 0.0;         // simulator virtual time (0 on thread backend)
  std::uint64_t wall_ns = 0;  // monotonic wall clock at record time
};

class TraceSink {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

  // ring_capacity is rounded up to a power of two; every writer thread gets
  // its own ring of that many events (oldest overwritten on wrap).
  explicit TraceSink(std::size_t ring_capacity = kDefaultRingCapacity);
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record(EventKind kind, std::uint32_t party, std::uint32_t peer,
              std::int64_t round, double value, double vtime) noexcept {
    Ring& r = *ring();
    TraceEvent& e = r.buf[r.head & r.mask];
    e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    e.kind = kind;
    e.party = party;
    e.peer = peer;
    e.round = round;
    e.value = value;
    e.vtime = vtime;
    e.wall_ns = wall_now_ns();
    ++r.head;
  }

  // Merged, seq-ordered view of every ring.  Readers must be quiescent: call
  // only after the transport that writes into this sink has finished (or
  // been destroyed) — ring slots carry no per-event synchronization.
  std::vector<TraceEvent> snapshot() const;

  // Total events ticketed (including any since overwritten by ring wrap).
  std::uint64_t recorded() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  // Events lost to ring wrap, summed over all writer threads.
  std::uint64_t dropped() const;

  std::size_t ring_capacity() const noexcept { return capacity_; }

 private:
  struct Ring {
    explicit Ring(std::size_t cap) : buf(cap), mask(cap - 1) {}
    std::vector<TraceEvent> buf;
    std::size_t mask;
    std::uint64_t head = 0;  // events ever written to this ring
  };
  struct TlSlot {
    std::uint64_t sink_id = 0;  // ids are never reused: stale slots miss
    Ring* ring = nullptr;
  };

  Ring* ring() noexcept {
    if (tl_slot_.sink_id == id_) return tl_slot_.ring;
    return ring_slow();
  }
  Ring* ring_slow() noexcept;

  static std::uint64_t wall_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  static thread_local TlSlot tl_slot_;

  const std::uint64_t id_;
  const std::size_t capacity_;
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mu_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Ring>>> rings_;
};

// The protocol-domain subsequence, in seq order.
std::vector<TraceEvent> protocol_events(const std::vector<TraceEvent>& events);

// FNV-1a fingerprint of the protocol-domain stream: kind, party, peer,
// round, value and vtime of each protocol event, in order.  Two runs with
// equal digests produced bit-identical protocol traces.
std::uint64_t protocol_digest(const std::vector<TraceEvent>& events);

}  // namespace apxa::obs
