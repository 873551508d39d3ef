// Backend-polymorphic execution harness.
//
// Builds a full system (protocol processes + fault plans + scheduler) from a
// RunConfig or VectorRunConfig, runs it on the execution backend the
// config's `backend` field names — the deterministic simulator, the threaded
// runtime or the loopback socket runtime — and checks the
// approximate-agreement properties (validity, eps-agreement) plus the
// per-round spread trace and communication metrics.  The verdict logic is
// identical on every backend; only message interleavings differ.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/collect.hpp"
#include "exec/backend.hpp"
#include "harness/build.hpp"
#include "harness/scenario.hpp"

namespace apxa::harness {

/// Round-entry values of a run: a flat [round x party] table of `Value`
/// (double for scalar runs, the point for vector runs).  Sized up front from
/// the config's round bound (trace_rounds), so recording a scalar allocates
/// nothing unless a run outlives the bound (kLive horizons watched from
/// outside); the table then doubles.  Shared by execute() and
/// harness::Session.
template <typename Value>
class RoundTrace {
 public:
  RoundTrace() = default;
  RoundTrace(std::uint32_t n, Round rounds)
      : n_(n), values_(static_cast<std::size_t>(rounds) * n), set_(values_.size()) {}

  /// Party p entered round r holding v (a later record overwrites).
  void record(ProcessId p, Round r, const Value& v) {
    const std::size_t i = static_cast<std::size_t>(r) * n_ + p;
    if (i >= values_.size()) {
      const std::size_t size = std::max(i + n_ - p, 2 * values_.size());
      values_.resize(size);
      set_.resize(size);
    }
    values_[i] = v;
    set_[i] = 1;
  }

  /// Rows held (every recorded round is below this).
  [[nodiscard]] Round rounds() const {
    return n_ == 0 ? 0 : static_cast<Round>(values_.size() / n_);
  }
  [[nodiscard]] bool has(Round r, ProcessId p) const {
    return set_[static_cast<std::size_t>(r) * n_ + p] != 0;
  }
  [[nodiscard]] const Value& at(Round r, ProcessId p) const {
    return values_[static_cast<std::size_t>(r) * n_ + p];
  }

 private:
  std::uint32_t n_ = 0;
  std::vector<Value> values_;      // [round * n + party]
  std::vector<std::uint8_t> set_;  // parallel: 1 once recorded
};

using ViewTrace =
    std::map<Round, std::map<ProcessId, std::vector<core::CollectEntry>>>;

/// Rows a run's trace needs: round-entry values run from round 0 to the
/// config's round bound.
Round trace_rounds(const RunConfig& cfg);
Round trace_rounds(const VectorRunConfig& cfg);

/// Construct the backend the config asks for (simulator backends get the
/// config's scheduler; the threaded runtime ignores sched/seed).
std::unique_ptr<exec::Backend> make_backend(const RunConfig& cfg);

/// Stage the scenario on `backend` (which must be freshly constructed with
/// matching params) and run it to a verdict.  `substitute` may seat a
/// caller-supplied process in place of a built one (see ProcessSubstitute).
RunReport execute(const RunConfig& cfg, exec::Backend& backend,
                  const ProcessSubstitute& substitute = {});

/// Run one complete execution on the backend selected by cfg.backend.
RunReport run(const RunConfig& cfg);

// --- vector scenarios -------------------------------------------------------
// The same entry points for vector-valued (R^d) runs: box-validity,
// convex-hull-validity (LP point-in-hull test, geom/safe_area.hpp) and
// L-infinity eps-agreement verdicts, per-round L-infinity spread traces,
// identical on every backend.

std::unique_ptr<exec::Backend> make_backend(const VectorRunConfig& cfg);
VectorRunReport execute(const VectorRunConfig& cfg, exec::Backend& backend);
VectorRunReport run(const VectorRunConfig& cfg);

// --- verdict finalization ---------------------------------------------------
// Turn an ExecResult plus the collected traces into the backend-independent
// report (validity hull, eps-agreement, spread trace, phase attribution).
// execute() is stage + run + finalize; harness::Session reuses finalize on
// per-instance synthetic ExecResults so multiplexed verdicts are computed by
// the exact same code as single-instance ones.  The report's metrics come
// from `metrics`, not res.metrics, so a session copies its transport's
// metrics once per report instead of into every synthetic ExecResult first.

RunReport finalize(const RunConfig& cfg, const exec::ExecResult& res,
                   const net::Metrics& metrics, const RoundTrace<double>& trace);
VectorRunReport finalize(const VectorRunConfig& cfg, const exec::ExecResult& res,
                         const net::Metrics& metrics,
                         const RoundTrace<std::vector<double>>& trace,
                         const ViewTrace& views);

}  // namespace apxa::harness
