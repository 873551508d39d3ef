// The one receive path every transport shares: the party table.
//
// Beside net::Outbox (the send path), the Inbox keeps what the paper's
// guarantees are judged on — who is correct, who has output and when — the
// same way on the simulator, the threaded runtime and the socket runtime:
//  - the processes and their byzantine flags (crash flags stay in the
//    Outbox, where sends consult them);
//  - packet delivery: a packet for a crashed receiver is dropped (kDrop);
//    otherwise every frame reaches on_message as a view into the packet and
//    counts one messages_delivered, the packet is traced as ONE kDeliver
//    whose value is its frame count, and the receiver's batch buffers flush
//    once after the last frame;
//  - output-time capture on the transport's clock: virtual time where the
//    transport has one (the simulator), else wall seconds since
//    start_clock() (the threaded and socket runtimes);
//  - latched per-party done flags and the resumable all-done scan;
//  - the correct-party accessors, which read outputs from the processes
//    once the run stopped (net/process.hpp makes outputs stable).
// A slot with no process (a remote party of a multi-process socket run)
// never blocks all_done() and reports no output.
//
// Threading: everything about party p — its upcalls, its output time, its
// done flag — is written only by the thread running p, right after p's own
// upcalls (the own-upcall contract of net/process.hpp), so delivery takes no
// lock.  Output times and done flags are relaxed atomics: the one
// coordinating thread reads the flags through all_done() and publishes
// nothing through them; it reads outputs and times only after the workers
// joined.  It sleeps in await_done() until a party stops blocking: a done
// flag latching and a first crash (any thread, through the Outbox's crash
// listener) each wake it once, so a run costs at most one wake per party
// and nothing per delivery.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "obs/trace.hpp"

namespace apxa::net {

/// Per-party completion probe.  It is consulted only for currently-correct
/// parties (so it may downcast to the honest-protocol type), by the thread
/// running the party and never during one of its upcalls; it must be
/// monotone (once true, true on every later call) and only read the probed
/// process.  Empty = "has produced an output".
using DoneProbe = std::function<bool(const Process&)>;

class Inbox {
 public:
  /// `clock` is the transport's virtual time (the simulator's), or null for
  /// wall seconds since start_clock().  It must outlive the Inbox.
  explicit Inbox(Outbox& out, const double* clock = nullptr);

  /// Seat `p` in the empty slot `id`.  Before the run.
  void add_process(ProcessId id, std::unique_ptr<Process> p);
  /// Declare `p` byzantine: bookkeeping that excludes it from completion
  /// waits and the correct-party accessors.  Before the run.
  void mark_byzantine(ProcessId p);
  /// Slots seated so far.
  [[nodiscard]] std::uint32_t seated() const { return seated_; }
  [[nodiscard]] bool has_process(ProcessId p) const { return procs_[p] != nullptr; }
  [[nodiscard]] const Process& process(ProcessId p) const;

  /// Trace sink (null disables) for deliveries and drops, also installed on
  /// the Outbox; both stamp the virtual clock, or 0 without one.
  void set_trace(obs::TraceSink* sink);

  /// Make now the zero of the wall clock output times are measured on, and
  /// return it.  Call before the workers start.
  std::chrono::steady_clock::time_point start_clock();

  /// Install the completion probe and clear the latches (a slot with no
  /// process starts latched).  Probes nobody yet.  Before the run.
  void set_done(DoneProbe done);

  /// Run p's on_start unless p crashed, flush its batch buffers, settle p.
  void start(ProcessId p);

  /// Deliver one packet from `from` to `to`; false when dropped because
  /// `to` crashed.  `latency` (in histogram units, see
  /// Metrics::latency_by_tag) is sampled when the transport knows the send
  /// time.  Ends with settle(to).
  bool deliver(ProcessId from, ProcessId to, BytesView packet,
               std::optional<double> latency);

  /// After an upcall into p returned: capture p's output time if its output
  /// just appeared, and latch p's done flag if p is correct and the probe
  /// now holds.  Only the thread running p may call it.
  void settle(ProcessId p);

  /// True when no correct party with a process is still not done.  A party
  /// that stops blocking never blocks again, so the scan resumes at the
  /// last blocker: O(n) per run, not per call.  One thread only.
  [[nodiscard]] bool all_done();
  /// Block until all_done() holds (true) or `deadline` passed (false; it is
  /// checked once more at the deadline).  The scan re-runs each time a party
  /// stops blocking: settle() latching its done flag, or its first crash
  /// from any thread.  The coordinating thread of a threaded transport,
  /// while the workers run.
  [[nodiscard]] bool await_done(std::chrono::steady_clock::time_point deadline);

  /// Neither crashed nor marked byzantine.
  [[nodiscard]] bool is_correct(ProcessId p) const {
    return !byzantine_[p] && !out_.crashed(p);
  }
  /// Transport time at which p's output appeared; +inf if it has none.
  [[nodiscard]] double output_time(ProcessId p) const;
  /// True when every correct party with a process has output.
  [[nodiscard]] bool all_correct_output() const;
  /// Outputs of the correct parties (in id order) whose output time was
  /// captured.  Read once the run stopped.
  [[nodiscard]] std::vector<double> correct_outputs() const;
  /// Vector outputs likewise; scalar protocols appear as 1-vectors
  /// (net::Process adapts).
  [[nodiscard]] std::vector<std::vector<double>> correct_vector_outputs() const;

 private:
  [[nodiscard]] bool has_output_time(ProcessId p) const;
  /// Virtual time, or 0 without a virtual clock: the trace stamp.
  [[nodiscard]] double stamp() const { return clock_ ? *clock_ : 0.0; }
  /// Virtual time, or wall seconds since start_clock().
  [[nodiscard]] double now() const;
  /// Wake await_done(): a party stopped blocking.  Any thread.
  void wake();

  SystemParams params_;
  Outbox& out_;
  const double* clock_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<std::uint8_t> byzantine_;
  std::uint32_t seated_ = 0;
  std::vector<std::atomic<double>> output_time_;  // +inf until captured
  std::vector<std::atomic<bool>> done_flag_;
  DoneProbe done_;
  ProcessId done_scan_ = 0;  // first possibly-blocking party
  std::mutex wake_mu_;          // orders a wake against await_done's scan
  std::condition_variable wake_cv_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace apxa::net
