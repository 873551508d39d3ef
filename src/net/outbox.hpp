// The one send path every transport shares.
//
// A process's send or multicast becomes packets here, the same way on the
// simulator, the threaded runtime and the socket runtime:
//  - crash budgets: crash_after_sends(p, k) lets p's first k LOGICAL sends
//    out and drops the (k+1)-th, after which p is crashed; a budget that
//    runs out on a send takes effect right after it, so a multicast in
//    progress reaches only the receivers already sent to;
//  - multicast order: set_multicast_order picks which receivers a crashing
//    multicast reaches;
//  - per-destination batching: frames sent during one upcall are buffered
//    per receiver and flushed as one batch packet (net/envelope.hpp) by
//    flush(), which the transport calls when the upcall returns; a full
//    buffer flushes at once, and frames buffered before a crash still flush;
//  - kSend / kDrop / kCrash tracing, stamped with the transport's clock;
//  - accounting into one net::Metrics slot per party.
//
// A multicast arrives as one immutable shared Payload, and every receiver's
// packet and batch buffer holds a reference to it, so nothing is copied or
// allocated per receiver; a batch packet is encoded once, from
// views of its frames.  The transport supplies only the Wire callback that
// puts one packet on the wire: a heap push, a mailbox push, a link send.
//
// Threading: every write of p's sends, deliveries to p and p's retransmits
// lands in p's cache-line-aligned Slot — its send count, its batch buffers,
// its metrics — and only the thread running p makes them, so the send path
// takes no lock and parties on different cores share no written line.
// Budgets and multicast orders are set before the run and only read during
// it.  Crash flags are atomics, since crash(p) may come from any thread.
// metrics() merges the slots; on a threaded transport call it once the run
// ended.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "obs/trace.hpp"

namespace apxa::net {

class Outbox {
 public:
  /// Puts one packet from `from` on the wire to `to`.
  using Wire = std::function<void(ProcessId from, ProcessId to, Payload packet)>;

  Outbox(SystemParams params, Wire wire);

  [[nodiscard]] SystemParams params() const { return params_; }

  /// Crash `p` now: its later sends count as drops.  Any thread.  The first
  /// crash of `p` calls the crash listener.
  void crash(ProcessId p);
  [[nodiscard]] bool crashed(ProcessId p) const {
    return crashed_[p].load(std::memory_order_relaxed);
  }
  /// Crash `p` immediately before its (count+1)-th logical send; at once if
  /// it already made `count`.
  void crash_after_sends(ProcessId p, std::uint64_t count);
  /// Called once per crashed party, on the crashing thread, right after its
  /// flag is set (net::Inbox wakes its completion waiter with it).  Before
  /// the run.
  void set_crash_listener(std::function<void()> listener) {
    crash_listener_ = std::move(listener);
  }
  /// Receiver order of p's multicasts (other parties only).
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);
  /// Per-destination batching at `max_frames` <= kMaxBatchFrames per packet.
  void enable_batching(std::uint32_t max_frames);
  [[nodiscard]] bool batching() const { return max_batch_ > 0; }
  /// Trace sink (null disables) and the clock its events are stamped with
  /// (null stamps 0: the threaded transports have no virtual time).
  void set_trace(obs::TraceSink* sink, const double* clock = nullptr) {
    trace_ = sink;
    clock_ = clock;
  }

  /// One logical send from `from` to `to`.
  void send(ProcessId from, ProcessId to, Payload frame);
  /// One logical send to every other party, in p's multicast order; every
  /// receiver shares `payload`'s buffer.
  void multicast(ProcessId from, const Payload& payload);
  /// Flush `from`'s batch buffers in receiver-id order (no-op unbatched).
  void flush(ProcessId from);

  /// Party p's metrics slot; only the thread running p may write it.  Its
  /// sent_by/bytes_by stay empty: a slot's messages_sent and payload_bytes
  /// are p's, and metrics() files them under p.
  [[nodiscard]] Metrics& metrics_of(ProcessId p) { return slots_[p].m; }
  /// All slots merged.
  [[nodiscard]] Metrics metrics() const;

 private:
  /// Everything one party's sends write.  Cache-line aligned so parties on
  /// different threads never share a line; the send count sits right before
  /// the metrics' scalar counters, so a send's counters fill one line.
  struct alignas(64) Slot {
    std::uint64_t sends_made = 0;  // logical sends so far (crash budgets)
    Metrics m;
    std::vector<std::vector<Payload>> batch;  // by receiver; empty unbatched
  };

  void put(ProcessId from, ProcessId to, Payload packet);
  void drop(ProcessId from, ProcessId to);
  void note_crash(ProcessId p);
  [[nodiscard]] double now() const { return clock_ ? *clock_ : 0.0; }

  SystemParams params_;
  Wire wire_;
  std::vector<std::atomic<bool>> crashed_;
  std::function<void()> crash_listener_;
  std::vector<std::uint64_t> send_limit_;  // kNoLimit if none
  std::vector<std::vector<ProcessId>> multicast_order_;
  std::uint32_t max_batch_ = 0;            // 0 = batching off
  std::vector<Slot> slots_;
  obs::TraceSink* trace_ = nullptr;
  const double* clock_ = nullptr;

  static constexpr std::uint64_t kNoLimit = UINT64_MAX;
};

/// The Context a transport hands to p's upcalls: sends go through the
/// Outbox on p's behalf.
class OutboxContext final : public Context {
 public:
  OutboxContext(Outbox& out, ProcessId self) : out_(out), self_(self) {}

  using Context::multicast;
  using Context::send;
  void send(ProcessId to, Payload payload) override;
  void multicast(Payload payload) override { out_.multicast(self_, payload); }
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return out_.params(); }

 private:
  Outbox& out_;
  ProcessId self_;
};

}  // namespace apxa::net
