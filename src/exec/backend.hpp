// Execution backend abstraction.
//
// The protocol state machines (net::Process) are transport-independent; a
// Backend seats one concrete transport — the deterministic discrete-event
// simulator (net::SimNetwork), the threaded in-process runtime
// (rt::ThreadNetwork) or the loopback UDP runtime (rt::SocketNetwork) —
// behind one interface: register processes, inject faults, run until every
// correct party is done, collect outputs, per-party finish times and
// communication metrics.  exec::TransportBackend (exec/transport_backend.hpp)
// is the one implementation, for all three transports: each keeps its
// party table in a net::Inbox, so the ExecResult is filled in one place.
//
// The harness layer (src/harness) builds processes and fault plans from a
// RunConfig once and executes them on any Backend, so every protocol x
// scheduler x adversary scenario runs unchanged on the simulator and under
// genuine OS-scheduler asynchrony, with the same validity / eps-agreement
// verdicts.
//
// Lifecycle: add_process (n times, in id order) and the fault-injection calls
// must precede run(); run() may be called once.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "net/inbox.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "net/status.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace apxa::exec {

struct ExecOptions {
  /// Simulator delivery budget (ignored by the threaded backend).
  std::uint64_t max_deliveries = 50'000'000;
  /// Wall-clock cap for the threaded backend (ignored by the simulator).
  std::chrono::milliseconds timeout{20'000};
  /// Completion probe (see net::DoneProbe); empty = party done once it has
  /// output.
  net::DoneProbe done;
};

struct ExecResult {
  net::RunStatus status = net::RunStatus::kQueueDrained;
  /// True when every correct party has produced an output (note: under a
  /// live-horizon done probe a run can complete without any outputs).
  bool all_correct_output = false;
  /// Scalar outputs of the parties correct at the end of the run, in id
  /// order.  Vector-valued protocols leave this empty (see vector_outputs).
  std::vector<double> outputs;
  /// Vector outputs of the correct parties that decided, in id order; scalar
  /// protocols appear as 1-vectors (net::Process::vector_output adapts).
  std::vector<std::vector<double>> vector_outputs;
  /// Per-party time at which the output appeared: virtual time in Delta
  /// units on the simulator, wall-clock seconds since run() on the threaded
  /// and socket backends; +inf where no output.  Size n.
  std::vector<double> output_times;
  /// Per-party "still correct at end of run" flags (crashed and byzantine
  /// parties are false).  Size n.
  std::vector<bool> correct;
  net::Metrics metrics;
  /// Executor telemetry: work-stealing counters on the threaded backend;
  /// only the worker count elsewhere (see obs::ExecStats).
  obs::ExecStats exec_stats;
  /// Transport-internal state as JSONL lines, one per party — the socket
  /// backend reports per-party link-layer state (unacked queue depth,
  /// retransmit counters, last sequence seen per peer) here; other backends
  /// leave it empty.  The flight recorder appends these to failure dumps.
  std::vector<std::string> transport_state;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Register party `id == number of parties added so far`.
  virtual void add_process(std::unique_ptr<net::Process> p) = 0;

  /// Bookkeeping: exclude `p` from completion waits, verdicts and the
  /// correct-party accessors.  The process itself still runs (byzantine
  /// parties are ordinary Process implementations that misbehave).
  virtual void mark_byzantine(ProcessId p) = 0;

  /// Crash `p` immediately before its (count+1)-th send: the first `count`
  /// sends of its lifetime go out, everything after is dropped, and `p`
  /// receives no further deliveries.  count == 0 crashes it at startup.
  virtual void crash_after_sends(ProcessId p, std::uint64_t count) = 0;

  /// Override the receiver order used by p's multicasts.  Combined with
  /// crash_after_sends this lets the adversary pick exactly which subset of
  /// receivers a crashing multicast reaches.
  virtual void set_multicast_order(ProcessId p, std::vector<ProcessId> order) = 0;

  /// Enable per-destination send batching: up to `max_frames` (<=
  /// net::kMaxBatchFrames) logical frames per packet, flushed when the
  /// sending upcall returns.  crash_after_sends keeps counting logical
  /// sends.  Must precede run(); off by default (the unbatched path is
  /// byte-identical to pre-batching builds).
  virtual void enable_batching(std::uint32_t max_frames) = 0;

  /// Attach an obs::TraceSink the transport records events into (null
  /// disables tracing).  The sink must outlive the backend; call before
  /// run().
  virtual void set_trace(obs::TraceSink* sink) = 0;

  /// Execute until every correct party satisfies the completion probe, the
  /// simulator queue drains, or a budget/timeout is hit.
  virtual ExecResult run(const ExecOptions& opts) = 0;

  [[nodiscard]] virtual SystemParams params() const = 0;

  /// Stable identifier ("sim", "thread", "socket") for reports and test
  /// names.
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace apxa::exec
