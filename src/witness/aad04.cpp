#include "witness/aad04.hpp"

#include <vector>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "core/multiset_ops.hpp"

namespace apxa::witness {

WitnessAaProcess::WitnessAaProcess(WitnessConfig cfg)
    : cfg_(std::move(cfg)),
      phase_(cfg_.params, cfg_.iterations, core::ReportGate::kAnyQuorum,
             [this](net::Context& ctx, Round,
                    const core::WitnessPhase<double>::View& view) {
               on_view(ctx, view);
             }) {
  APXA_ENSURE(core::resilience_witness(cfg_.params.n, cfg_.params.t),
              "witness technique requires n > 3t");
  APXA_ENSURE(cfg_.iterations >= 1, "need at least one iteration");
  value_ = cfg_.input;
}

void WitnessAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  begin_iteration(ctx);
}

void WitnessAaProcess::begin_iteration(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, iter_, value_);
  phase_.begin_round(ctx, iter_, value_);
}

void WitnessAaProcess::on_message(net::Context& ctx, ProcessId from, BytesView payload) {
  phase_.handle(ctx, from, payload);
}

void WitnessAaProcess::on_view(net::Context& ctx,
                               const core::WitnessPhase<double>::View& view) {
  std::vector<double> values;
  values.reserve(view.size());
  for (const auto& [origin, v] : view) values.push_back(v);
  value_ = core::apply_averager(core::Averager::kReduceMidpoint, std::move(values),
                                cfg_.params.t);
  ++iter_;
  if (iter_ >= cfg_.iterations) {
    if (cfg_.trace) cfg_.trace(self_, iter_, value_);
    output_ = value_;
    return;
  }
  begin_iteration(ctx);
}

}  // namespace apxa::witness
