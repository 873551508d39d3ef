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
#include <memory>
#include <optional>
#include <vector>

#include "core/collect.hpp"
#include "exec/backend.hpp"
#include "harness/build.hpp"
#include "harness/scenario.hpp"

namespace apxa::harness {

/// A run's per-round records of `Value` (the round-entry double or point, or
/// a vector run's frozen view), one column of rounds per party.  Columns are
/// sized up front from the config's round bound (trace_rounds), so recording
/// a scalar allocates nothing unless a run outlives the bound (kLive horizons
/// watched from outside); that party's column then doubles.  record(p, ...)
/// touches only party p's column, so the threads running different parties
/// record without a lock; read the trace once they are done.  Shared by
/// execute() and Session.
template <typename Value>
class RoundTrace {
 public:
  RoundTrace() = default;
  RoundTrace(std::uint32_t n, Round rounds)
      : cols_(n, std::vector<std::optional<Value>>(rounds)) {}

  /// Party p entered round r holding v (a later record overwrites).
  void record(ProcessId p, Round r, const Value& v) {
    auto& col = cols_[p];
    if (r >= col.size()) col.resize(std::max<std::size_t>(r + 1, 2 * col.size()));
    col[r] = v;
  }

  /// Rows held (every recorded round is below this).
  [[nodiscard]] Round rounds() const {
    std::size_t rows = 0;
    for (const auto& col : cols_) rows = std::max(rows, col.size());
    return static_cast<Round>(rows);
  }
  [[nodiscard]] bool has(Round r, ProcessId p) const {
    return r < cols_[p].size() && cols_[p][r].has_value();
  }
  [[nodiscard]] const Value& at(Round r, ProcessId p) const { return *cols_[p][r]; }

 private:
  std::vector<std::vector<std::optional<Value>>> cols_;  // [party][round]
};

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
VectorRunReport execute(const VectorRunConfig& cfg, exec::Backend& backend,
                        const ProcessSubstitute& substitute = {});
VectorRunReport run(const VectorRunConfig& cfg);

// --- verdict finalization ---------------------------------------------------
// Turn an ExecResult plus the collected traces into the backend-independent
// report (validity hull, eps-agreement, spread trace, phase attribution).
// execute() is stage + run + finalize; harness::Session reuses finalize on
// per-instance synthetic ExecResults so multiplexed verdicts are computed by
// the exact same code as single-instance ones.  finalize leaves the report's
// metrics empty: execute() moves res.metrics in afterwards, and a session
// keeps its transport's metrics once, in SessionReport.  The vector overload
// reads `metrics` (not res.metrics, which a session's synthetic results
// leave empty) for the per-phase msgs_* counts.

RunReport finalize(const RunConfig& cfg, const exec::ExecResult& res,
                   const RoundTrace<double>& trace);
VectorRunReport finalize(const VectorRunConfig& cfg, const exec::ExecResult& res,
                         const net::Metrics& metrics,
                         const RoundTrace<std::vector<double>>& trace,
                         const RoundTrace<std::vector<core::CollectEntry>>& views);

}  // namespace apxa::harness
