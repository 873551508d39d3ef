// AA-as-a-service: many concurrent agreement instances over one network.
//
// A Session registers K RunConfig / VectorRunConfig instances (freely mixed)
// that share one transport.  Each party is represented on the wire by a
// single ROUTER process owning that party's K per-instance protocol state
// machines; outgoing traffic is wrapped in instance envelopes
// (net/envelope.hpp) and incoming envelopes are demultiplexed to the owning
// sub-process.  Byzantine attacker processes ride behind the same router, so
// even adversarial traffic carries well-formed envelopes.  With batching
// enabled (SessionOptions::batching) the transports pack the frames of one
// upcall into per-destination batch packets, amortizing per-message transport
// cost across instances — the whole point of multiplexing.
//
// Verdicts: per-instance reports are produced by the SAME finalize() code as
// single-instance harness::run, fed a per-instance synthetic ExecResult
// (per-instance outputs, decide times and traces).  The transport metrics
// are session-wide and kept once, in SessionReport::metrics — per-instance
// message counts live in its sent_by_instance — so a per-instance report's
// own metrics stay default-constructed.
//
// Every session runs the router path, size 1 included: a size-1 session
// reaches the same outputs, traces and logical message counts as plain
// harness::run and differs only in envelope bytes and per-instance
// attribution.
//
// Constraints a multiplexed session enforces (std::invalid_argument):
//  - every instance shares params, sched, seed, backend and byzantine ID set
//    (attacker *strategies* may differ per instance);
//  - per-instance crash plans are empty — crashes are a SESSION-level fault
//    (SessionOptions::crashes) whose send budgets count logical sends across
//    all of the party's instances;
//  - scalar instances must use an outputting termination mode (not kLive):
//    completion is "every router decided every instance".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "adversary/crash_plan.hpp"
#include "harness/harness.hpp"
#include "harness/scenario.hpp"

namespace apxa::harness {

struct SessionOptions {
  /// Frames-per-packet cap for per-destination send batching; 0 = batching
  /// off.  Values are clamped nowhere — must be <= net::kMaxBatchFrames.
  std::uint32_t batching = 0;
  /// Worker count for the threaded backend's stealing executor; 0 = auto
  /// (min(n, hardware_concurrency)).  Ignored by the simulator.
  std::uint32_t shards = 0;
  /// Session-level crash plan: a budget of k crashes the party after its
  /// k-th LOGICAL send counted across every instance it serves.
  std::vector<adversary::CrashSpec> crashes;
  /// Optional trace sink: attached to the shared transport, propagated into
  /// every instance config (collect-engine kViewFreeze hooks, verdict-failure
  /// flight dumps), and fed a kInstanceFinish event per (party, instance)
  /// decide.  Must outlive the session run.
  obs::TraceSink* trace = nullptr;
};

struct SessionReport {
  net::RunStatus status = net::RunStatus::kQueueDrained;
  /// True when every instance's correct parties all decided.
  bool all_output = false;
  /// Per-instance reports in add() order; exactly one slot engaged per
  /// instance depending on its config type.  Their `metrics` are left
  /// default-constructed (all zero): the session's transport is shared, so
  /// its counts are reported once, in `metrics` below.  A vector report's
  /// msgs_* phase counts are read from those session-wide per-tag counts.
  std::vector<std::optional<RunReport>> scalar_reports;
  std::vector<std::optional<VectorRunReport>> vector_reports;
  /// Per-instance finish time: max decide time over that instance's correct
  /// parties (Delta units on sim, wall seconds on thread); +inf if the
  /// instance did not complete.
  std::vector<double> finish_times;
  /// Session-wide transport metrics (logical messages, packets, per-instance
  /// counts in sent_by_instance): the one copy a session keeps.
  net::Metrics metrics;
  /// Batching efficiency: metrics.msgs_per_packet().
  double msgs_per_packet = 0.0;
  /// Executor telemetry for the shared transport; see RunReport::exec_stats.
  obs::ExecStats exec_stats;
};

class Session {
 public:
  explicit Session(SessionOptions opts = {});

  /// Register an instance; returns its instance id (= envelope instance
  /// field = index into the report vectors).
  std::size_t add(RunConfig cfg);
  std::size_t add(VectorRunConfig cfg);

  [[nodiscard]] std::size_t size() const { return instances_.size(); }

  /// Execute all instances over one shared transport and report per-instance
  /// verdicts.  May be called once.
  SessionReport run();

 private:
  struct Instance {
    std::optional<RunConfig> scalar;
    std::optional<VectorRunConfig> vec;
    RunConfigBase& base() {
      return scalar ? static_cast<RunConfigBase&>(*scalar) : *vec;
    }
  };

  SessionOptions opts_;
  std::vector<Instance> instances_;
  bool ran_ = false;
};

/// Convenience: one-shot session over a uniform config list.
SessionReport run_session(const std::vector<RunConfig>& cfgs,
                          const SessionOptions& opts = {});
SessionReport run_session(const std::vector<VectorRunConfig>& cfgs,
                          const SessionOptions& opts = {});

}  // namespace apxa::harness
