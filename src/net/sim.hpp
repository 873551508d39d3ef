// Deterministic discrete-event simulator for the asynchronous network model.
//
// Model (Fekete / DLPSW):
//  - n parties, fully connected, reliable authenticated point-to-point links;
//  - the adversary schedules deliveries arbitrarily but must eventually
//    deliver messages between correct parties — realized here by requiring
//    every delay to lie in (0, Delta] with Delta = 1.0 (so virtual time is
//    already "round-normalized": finishing at time R means R rounds);
//  - up to t parties fail.  Crash faults are injected by the simulator
//    (a party stops mid-execution; a multicast in progress reaches only the
//    receivers already sent to).  Byzantine parties are ordinary Process
//    implementations that misbehave (the per-receiver send() interface gives
//    them full equivocation power).
//
// Determinism: events are ordered by (delivery_time, sequence number), and
// all randomness comes from seeded Rng instances, so a simulation replays
// bit-identically from its configuration.
//
// Cost per event: O(1) in n.  A delivery changes only its receiver's state
// (the own-upcall contract in net/process.hpp), so after each event only
// the receiver is settled — its output time noted, its done probe re-run
// into a latched flag — and the all-correct-done conjunction is a scan of
// those flags that resumes at the last blocking party.  A batch's frames
// reach on_message as views into the packet, never as copies.
//
// Sends go through net::Outbox (crash budgets, multicast order, batching,
// send tracing and accounting), whose wire here is the event heap;
// deliveries, output times, done latches and the correct-party accessors
// go through net::Inbox, stamped with virtual time.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/ensure.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/inbox.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "net/status.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace apxa::net {

class SimNetwork final {
 public:
  /// The scheduler decides per-message delays; the network owns it.
  SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler);

  /// Not movable: the Outbox's wire and the Inbox's clock point back at
  /// this network.
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Register party `id == number of parties added so far`.  All n parties
  /// must be added before start().
  void add_process(std::unique_ptr<Process> p);

  /// Declare a party byzantine (bookkeeping, see net::Inbox).  Must be
  /// called before start().
  void mark_byzantine(ProcessId p);

  /// Crash `p` immediately before its (count+1)-th logical send (see
  /// net::Outbox); it then receives no further deliveries.
  void crash_after_sends(ProcessId p, std::uint64_t count);

  /// Crash `p` at the first event at or after virtual time `time`.
  void crash_at_time(ProcessId p, double time);

  /// Receiver order of p's multicasts, so the adversary picks which subset
  /// a crashing multicast reaches.
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);

  /// Enable link-level duplication: each sent message is delivered a second
  /// time with probability `prob` (independent delay).  The model's links
  /// are reliable but say nothing about at-most-once delivery; correct
  /// protocols must be idempotent, and this knob proves they are.
  void enable_duplication(double prob, std::uint64_t seed);

  /// Per-destination send batching (net::Outbox), flushed after each
  /// upcall.  Off by default.
  void enable_batching(std::uint32_t max_frames);

  /// Attach a trace sink (null disables tracing; the default).  Events are
  /// recorded in the event loop's order, so a traced run replays its
  /// protocol stream bit for bit.  The sink must outlive the network.
  void set_trace(obs::TraceSink* sink) {
    trace_ = sink;
    inbox_.set_trace(sink);
  }
  [[nodiscard]] obs::TraceSink* trace() const { return trace_; }

  /// Executor counters: the event loop is one thread and fills no others.
  [[nodiscard]] obs::ExecStats exec_stats() const {
    obs::ExecStats s;
    s.workers = 1;
    return s;
  }

  /// Invoke on_start on every party (in id order) at time 0.
  void start();

  /// Deliver messages until the predicate holds, the queue drains, or the
  /// budget is exhausted.  The predicate is checked after every delivery.
  RunStatus run_until(const std::function<bool()>& pred,
                      std::uint64_t max_deliveries = 50'000'000);

  /// Deliver until every correct party satisfies `done` (net::DoneProbe;
  /// empty = "has produced an output"), the queue drains, or the budget is
  /// exhausted.  Stops exactly where run_until over the all-correct-done
  /// conjunction would, but probes each correct party once up front and
  /// afterwards only the receiver of each delivery, latching the answers
  /// (at most n + deliveries probe calls).
  RunStatus run_until_done(const DoneProbe& done,
                           std::uint64_t max_deliveries = 50'000'000);

  /// Deliver until the queue drains (or budget).
  RunStatus run(std::uint64_t max_deliveries = 50'000'000);

  /// The party table: processes, correctness, output times and outputs.
  [[nodiscard]] const Inbox& inbox() const { return inbox_; }
  [[nodiscard]] SystemParams params() const { return params_; }
  [[nodiscard]] double now() const { return now_; }
  /// The per-party slots merged (valid at any point of the run).
  [[nodiscard]] Metrics metrics() const { return outbox_.metrics(); }

 private:
  /// (time, seq) as one unsigned 128-bit key: the high half is the
  /// delivery time's bit pattern, the low half the tiebreak seq.  For
  /// finite times >= +0 the IEEE-754 bit pattern orders like the value, so
  /// one integer compare orders events without a data-dependent branch.
  __extension__ using EventKey = unsigned __int128;

  struct Pending {
    EventKey key;
    Message msg;
    [[nodiscard]] static EventKey key_of(double time, std::uint64_t seq) {
      return (EventKey{std::bit_cast<std::uint64_t>(time)} << 64) | seq;
    }
    [[nodiscard]] double time() const {
      return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 64));
    }
  };

  /// The Outbox's wire: schedule one packet's delivery (and its duplicate).
  void schedule(ProcessId from, ProcessId to, Payload payload);
  void push_event(Pending p);
  Pending pop_event();
  void apply_timed_crashes(double up_to);

  /// The one delivery path (run_until and run_until_done): the scheduler
  /// sees the delivery unless the receiver crashed, then net::Inbox
  /// delivers it.  False when dropped.
  bool deliver(const Message& m);
  /// Serial event loop: pop, advance time, deliver; stops when `stop()`
  /// holds after a delivery.
  template <class Stop>
  RunStatus drive(Stop&& stop, std::uint64_t max_deliveries);

  SystemParams params_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::vector<double> crash_time_;               // +inf if none
  // Earliest crash_at_time not yet applied (a lower bound), so
  // apply_timed_crashes costs one compare per event until it is due.
  double next_crash_time_ = std::numeric_limits<double>::infinity();

  /// Min-heap on EventKey, 4-ary and held in place (whole events, no
  /// key-over-slab indirection).  An n = 16 witness run with five
  /// equivocators holds ~1,300 events on average and ~4,000 at peak: ~5
  /// levels of a 4-ary heap instead of ~10 of a binary one.  Its random
  /// (time, seq) keys made the binary heap's compare at each level a coin
  /// flip for the branch predictor; here each level picks the least of its
  /// four children with branch-free selects, and the only branches left
  /// are the loop bounds.  Sifts move a hole, not swapped pairs.  Keys are
  /// unique, so the pop order is the (time, seq) order of any correct
  /// priority queue.  Every delivery time must be finite and >= +0 (now +
  /// sched::clamp_delay), or its key misorders.
  std::vector<Pending> queue_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  bool started_ = false;
  double duplication_prob_ = 0.0;
  std::optional<Rng> duplication_rng_;
  obs::TraceSink* trace_ = nullptr;
  Outbox outbox_;
  Inbox inbox_;
};

}  // namespace apxa::net
