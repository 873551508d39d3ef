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
// Cost per event: O(1) in n.  Every run loop shares one delivery helper
// (deliver), and a delivery changes only its receiver's state (the
// own-upcall contract in net/process.hpp), so after each event only the
// receiver's output time is noted and only the receiver's done probe is
// re-run into a latched per-party flag; the all-correct-done conjunction is
// a scan of those flags that resumes at the last blocking party.  A batch's
// frames reach on_message as views into the packet, never as copies.
//
// Sends go through net::Outbox (crash budgets, multicast order, batching,
// send tracing and accounting); the simulator's wire is its event heap.
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
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "net/status.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace apxa::net {

enum class PartyStatus : std::uint8_t { kCorrect, kCrashed, kByzantine };

class SimNetwork final {
 public:
  /// The scheduler decides per-message delays; the network owns it.
  SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler);

  /// Not movable: the Outbox's wire points back at this network.
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Register party `id == number of parties added so far`.  All n parties
  /// must be added before start().
  void add_process(std::unique_ptr<Process> p);

  /// Declare a party byzantine (for bookkeeping: invariant checks and the
  /// "correct parties" accessors skip it).  Must be called before start().
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
    outbox_.set_trace(sink, &now_);
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

  /// Per-party completion probe: `done(p, process(p))` is consulted only for
  /// currently-correct parties, MUST be monotone (once true, true on every
  /// later call) and must only read the probed process.
  using PartyDone = std::function<bool(ProcessId, const Process&)>;

  /// Deliver until every correct party satisfies `done` (empty = "has
  /// produced an output"), the queue drains, or the budget is exhausted.
  /// Stops exactly where run_until over the all-correct-done conjunction
  /// would, but probes each correct party once up front and afterwards only
  /// the receiver of each delivery, latching the answers (at most n +
  /// deliveries probe calls).
  RunStatus run_until_done(const PartyDone& done,
                           std::uint64_t max_deliveries = 50'000'000);

  /// Deliver until the queue drains (or budget).
  RunStatus run(std::uint64_t max_deliveries = 50'000'000);

  /// True when every correct party has produced an output.
  [[nodiscard]] bool all_correct_output() const;

  [[nodiscard]] Process& process(ProcessId p);
  [[nodiscard]] const Process& process(ProcessId p) const;
  [[nodiscard]] PartyStatus status(ProcessId p) const;
  [[nodiscard]] bool is_correct(ProcessId p) const {
    return status(p) == PartyStatus::kCorrect;
  }
  [[nodiscard]] SystemParams params() const { return params_; }
  [[nodiscard]] double now() const { return now_; }
  /// The per-party slots merged (valid at any point of the run).
  [[nodiscard]] Metrics metrics() const { return outbox_.metrics(); }

  /// Outputs of all currently-correct parties (in id order) that have output.
  [[nodiscard]] std::vector<double> correct_outputs() const;

  /// Vector outputs of all currently-correct parties (in id order) that have
  /// decided; scalar protocols appear as 1-vectors (net::Process adapts).
  [[nodiscard]] std::vector<std::vector<double>> correct_vector_outputs() const;

  /// Virtual time at which party p produced its output (checked after each
  /// delivery); infinity if it has not output.
  [[nodiscard]] double output_time(ProcessId p) const;

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
  /// Neither crashed nor byzantine.
  [[nodiscard]] bool correct(ProcessId p) const {
    return !byzantine_[p] && !outbox_.crashed(p);
  }
  void apply_timed_crashes(double up_to);
  void note_output(ProcessId p);

  /// The one delivery path (run_until and run_until_done): drop if the
  /// receiver crashed, else account the delivery, run the receiver's
  /// upcall(s) — one per frame of a batch, each a view into the packet —,
  /// flush its batch buffers and note the receiver's output time.  False
  /// when dropped.
  bool deliver(const Message& m);
  /// Serial event loop: pop, advance time, deliver; stops when
  /// `stop_after(receiver)` holds after a delivery.
  template <class StopAfter>
  RunStatus drive(StopAfter&& stop_after, std::uint64_t max_deliveries);

  /// Latched completion flags for run_until_done: latch_all_done probes every correct party once, latch_done re-probes
  /// one party after its own event, all_done scans the flags from the last
  /// party that blocked.
  void latch_all_done(const PartyDone& done);
  void latch_done(ProcessId p, const PartyDone& done);
  [[nodiscard]] bool all_done();

  SystemParams params_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<std::uint8_t> byzantine_;
  std::vector<double> crash_time_;               // +inf if none
  std::vector<double> output_time_;
  // Earliest crash_at_time not yet applied (a lower bound), so
  // apply_timed_crashes costs one compare per event until it is due.
  double next_crash_time_ = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> done_flag_;           // run_until_done latches
  ProcessId done_scan_ = 0;                       // first possibly-blocking party

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
};

}  // namespace apxa::net
