// Witness-technique asynchronous approximate agreement (Abraham, Amit, Dolev,
// OPODIS'04) — the follow-on protocol that closed the resilience gap the 1987
// round-based protocols left open: optimal t < n/3 byzantine resilience, at
// the price of Theta(n^3) messages per iteration.
//
// Each iteration is one round of core::WitnessPhase<double> (core/collect.hpp
// has the phases, their thresholds and the overlap argument), with the
// AAD'04 report rule: REPORT on any n - t deliveries.  On the frozen view V
// the party sets v := midpoint(reduce_t(V)).  Views differ in at most t
// entries each way, reduce_t launders the (globally consistent) byzantine
// values, and the midpoint halves the spread every iteration: K = 2,
// independent of n/t.  Contrast with the crash-model mean rule's
// K = (n - t)/t — resilience bought with both messages and rate.
//
// Termination: fixed iteration budget from a public input-magnitude bound
// (synchronized budgets need no extra machinery).  A finished party keeps
// serving the witness phase for laggards (totality obligation).
#pragma once

#include <optional>

#include "common/ids.hpp"
#include "core/async_crash.hpp"  // TraceFn
#include "core/collect.hpp"
#include "net/process.hpp"

namespace apxa::witness {

struct WitnessConfig {
  /// Requires n > 3t (checked in the constructor; below the bound Bracha RB
  /// loses agreement and the whole construction is void).
  SystemParams params;
  double input = 0.0;
  /// Iteration budget, >= 1 (checked).  Factor-2 contraction per iteration
  /// means ceil(log2(spread/eps)) iterations reach eps-agreement.
  Round iterations = 1;
  core::TraceFn trace;  ///< (party, iteration, value at iteration entry)
};

class WitnessAaProcess final : public net::Process {
 public:
  /// Throws std::invalid_argument unless n > 3t and iterations >= 1.
  explicit WitnessAaProcess(WitnessConfig cfg);

  void on_start(net::Context& ctx) override;
  /// Feeds every payload to the witness phase, also after output() is set —
  /// dropping that duty would strand laggards one totality quorum short.
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;
  /// Set after `iterations` completed iterations; stable afterwards.
  [[nodiscard]] std::optional<double> output() const override { return output_; }

  [[nodiscard]] double current_value() const { return value_; }
  [[nodiscard]] Round current_iteration() const { return iter_; }
  [[nodiscard]] const core::WitnessPhase<double>& phase() const { return phase_; }

 private:
  void begin_iteration(net::Context& ctx);
  void on_view(net::Context& ctx, const core::WitnessPhase<double>::View& view);

  WitnessConfig cfg_;
  core::WitnessPhase<double> phase_;
  double value_ = 0.0;
  Round iter_ = 0;
  std::optional<double> output_;
  ProcessId self_ = kNoProcess;
};

}  // namespace apxa::witness
