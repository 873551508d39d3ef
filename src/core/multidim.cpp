#include "core/multidim.hpp"

#include <utility>

#include "common/ensure.hpp"
#include "geom/geom.hpp"

namespace apxa::core {

VectorAaProcess::VectorAaProcess(VectorAaConfig cfg) : cfg_(std::move(cfg)) {
  const SystemParams& p = cfg_.params;
  if (std::holds_alternative<Averager>(cfg_.rule)) {
    APXA_ENSURE(p.n > 2 * p.t && p.t >= 1, "vector AA requires n > 2t, t >= 1");
    APXA_ENSURE(cfg_.collect == CollectMode::kQuorum,
                "per-coordinate averaging runs on the quorum collect only");
  } else {
    APXA_ENSURE(p.n > 3 * p.t && p.t >= 1,
                "convex vector AA requires n > 3t, t >= 1");
  }
  APXA_ENSURE(cfg_.dim >= 1, "dimension must be positive");
  APXA_ENSURE(cfg_.input.size() == cfg_.dim, "input must have `dim` coordinates");
  value_ = cfg_.input;
  collector_ = make_collector(
      cfg_.collect, cfg_.params, cfg_.dim, cfg_.fixed_rounds,
      [this](net::Context& ctx, Round r, const std::vector<CollectEntry>& view) {
        on_view(ctx, r, view);
      },
      cfg_.trace_sink);
}

void VectorAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  if (cfg_.fixed_rounds == 0) {
    if (cfg_.trace) cfg_.trace(self_, 0, value_);
    done_ = true;
    return;
  }
  begin_round(ctx);
}

void VectorAaProcess::begin_round(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  collector_->begin_round(ctx, round_, value_);
}

void VectorAaProcess::on_message(net::Context& ctx, ProcessId from,
                                 BytesView payload) {
  if (done_) {
    // The equalized engine must keep serving the reliable-broadcast layer
    // after we output: laggards' RB instances need our echoes/readies for
    // totality (quorum mode has no such obligation).
    if (collector_->serve_when_done()) collector_->handle(ctx, from, payload);
    return;
  }
  collector_->handle(ctx, from, payload);
}

std::vector<std::uint8_t> VectorAaProcess::trusted_mask(
    const std::vector<CollectEntry>& view) const {
  // My own entry, and any echo of it: a byzantine copy of my honest value is
  // still my honest value, so keeping it cannot move an average outside the
  // honest hull.  Guarantees the certified-honest core geom::safe_midpoint
  // falls back to is never empty.  Both collect engines guarantee the own
  // entry is present in the frozen view.
  std::vector<std::uint8_t> trusted(view.size(), 0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view[i].origin == self_ || geom::same_point(view[i].value, value_)) {
      trusted[i] = 1;
    }
  }
  return trusted;
}

void VectorAaProcess::on_view(net::Context& ctx, Round r,
                              const std::vector<CollectEntry>& view) {
  APXA_ASSERT(!done_ && r == round_, "view fired for a settled round");
  if (cfg_.view_trace) cfg_.view_trace(self_, r, view);
  std::vector<std::vector<double>> points;
  points.reserve(view.size());
  for (const CollectEntry& e : view) points.push_back(e.value);
  if (const auto* averager = std::get_if<Averager>(&cfg_.rule)) {
    // Column c of the view is a 1-D multiset; the reduce/select based rules
    // launder byzantine values per coordinate.
    value_ = geom::average_per_coordinate(*averager, points, cfg_.dim,
                                          cfg_.params.t);
  } else {
    value_ = geom::safe_midpoint(points, cfg_.params.t,
                                 std::get<geom::SafeAreaOptions>(cfg_.rule),
                                 trusted_mask(view))
                 .point;
  }
  ++round_;
  if (round_ >= cfg_.fixed_rounds) {
    if (cfg_.trace) cfg_.trace(self_, round_, value_);
    done_ = true;
    return;
  }
  begin_round(ctx);
}

}  // namespace apxa::core
