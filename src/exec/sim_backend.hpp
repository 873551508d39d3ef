// Backend adapter over the deterministic discrete-event simulator.
//
// Thin seam: forwards registration and fault injection to net::SimNetwork,
// hands the per-process DonePredicate to run_until_done() as a per-party
// probe, and flattens the end state into an ExecResult.
// Determinism is inherited from the simulator — identical configurations
// replay bit-identically.
#pragma once

#include <memory>

#include "exec/backend.hpp"
#include "net/sim.hpp"

namespace apxa::exec {

class SimBackend final : public Backend {
 public:
  /// The scheduler decides per-message delays; the backend owns it.
  SimBackend(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler);

  void add_process(std::unique_ptr<net::Process> p) override;
  void mark_byzantine(ProcessId p) override;
  void crash_after_sends(ProcessId p, std::uint64_t count) override;
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order) override;
  void enable_batching(std::uint32_t max_frames) override;
  void set_trace(obs::TraceSink* sink) override { net_.set_trace(sink); }
  ExecResult run(const ExecOptions& opts) override;

  [[nodiscard]] SystemParams params() const override { return net_.params(); }
  [[nodiscard]] std::string_view name() const override { return "sim"; }

  /// Escape hatch for simulator-only knobs (duplication, timed crashes).
  /// Harness code that uses it is no longer backend-portable by definition.
  [[nodiscard]] net::SimNetwork& network() { return net_; }

 private:
  net::SimNetwork net_;
};

}  // namespace apxa::exec
