#include "core/async_crash.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"

namespace apxa::core {

namespace {

/// First round the party can never collect (see the header's round bound).
Round round_end(const RoundAaConfig& cfg) {
  switch (cfg.mode) {
    case TerminationMode::kFixedRounds:
      return cfg.fixed_rounds;
    case TerminationMode::kAdaptive:
      return std::max<Round>(cfg.budget_cap, 1);
    case TerminationMode::kLive:
      break;
  }
  return kNoRound;
}

}  // namespace

RoundAaProcess::RoundAaProcess(RoundAaConfig cfg)
    : cfg_(std::move(cfg)),
      collector_(cfg_.params, round_end(cfg_),
                 cfg_.mode == TerminationMode::kLive ? kLiveLookahead : kNoRound) {
  const auto n = cfg_.params.n;
  const auto t = cfg_.params.t;
  APXA_ENSURE(t >= 1, "round-based AA expects t >= 1 (use t=1 for failure-free runs)");
  APXA_ENSURE(n > 2 * t, "round-based AA requires n > 2t");
  if (cfg_.averager == Averager::kDlpswAsync) {
    APXA_ENSURE(resilience_byz_async(n, t), "dlpsw-async averager requires n > 5t");
  }
  if (cfg_.mode == TerminationMode::kAdaptive) {
    APXA_ENSURE(cfg_.epsilon > 0.0, "adaptive mode needs epsilon > 0");
    APXA_ENSURE(cfg_.adaptive_slack >= 1.0, "adaptive slack must be >= 1");
  }
  value_ = cfg_.input;
}

void RoundAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  if (cfg_.mode == TerminationMode::kFixedRounds) {
    budget_ = cfg_.fixed_rounds;
    budget_known_ = true;
  }
  widen_range(value_);
  if (cfg_.mode == TerminationMode::kFixedRounds && cfg_.fixed_rounds == 0) {
    // Degenerate budget: output the input without any communication.
    if (cfg_.trace) cfg_.trace(self_, 0, value_);
    output_ = value_;
    finished_ = true;
    return;
  }
  begin_round(ctx);
  try_advance(ctx);
}

void RoundAaProcess::begin_round(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  collector_.add_own(round_, value_);
  inject_done_values(round_);
  ctx.multicast(round_payload(RoundMsg{round_, value_, budget_}));
}

void RoundAaProcess::adopt_budget(Round b) {
  if (cfg_.mode != TerminationMode::kAdaptive) return;
  b = std::min(b, cfg_.budget_cap);
  if (b > budget_) budget_ = b;
}

void RoundAaProcess::widen_range(double v) {
  if (!range_init_) {
    range_lo_ = range_hi_ = v;
    range_init_ = true;
    return;
  }
  range_lo_ = std::min(range_lo_, v);
  range_hi_ = std::max(range_hi_, v);
}

void RoundAaProcess::inject_done_values(Round r) {
  for (const auto& [from, info] : done_) {
    if (info.from_round <= r) collector_.add_remote(from, r, info.value);
  }
}

bool RoundAaProcess::budget_reached() const {
  if (cfg_.mode == TerminationMode::kLive) return false;
  if (!budget_known_) return false;
  return round_ >= budget_;
}

void RoundAaProcess::on_message(net::Context& ctx, ProcessId from, BytesView payload) {
  if (finished_) {
    // Frozen parties stop participating entirely; laggards rely on the DONE
    // announcement (adaptive) or on synchronized budgets (fixed).
    return;
  }
  if (const auto m = decode_round(payload)) {
    adopt_budget(m->budget);
    if (cfg_.mode == TerminationMode::kAdaptive) {
      widen_range(m->value);
      // A wider known range may demand more rounds; raise the budget.
      if (budget_known_) {
        const double k = predicted_factor(cfg_.averager, cfg_.params.n, cfg_.params.t);
        adopt_budget(rounds_needed(cfg_.adaptive_slack * (range_hi_ - range_lo_),
                                   cfg_.epsilon, k));
      }
    }
    collector_.add_remote(from, m->round, m->value);
    try_advance(ctx);
    return;
  }
  if (const auto d = decode_done(payload)) {
    done_[from] = DoneInfo{d->round, d->value};
    widen_range(d->value);
    // The frozen value stands in for every round >= d->round, including the
    // one currently being collected.
    if (d->round <= round_) collector_.add_remote(from, round_, d->value);
    try_advance(ctx);
    return;
  }
  // Unknown payloads (other protocols' traffic or malformed byzantine bytes)
  // are ignored.
}

void RoundAaProcess::try_advance(net::Context& ctx) {
  while (!finished_ && collector_.ready(round_)) {
    const auto view = collector_.view(round_);
    view_.assign(view.begin(), view.end());

    if (cfg_.mode == TerminationMode::kAdaptive && !budget_known_) {
      // Budget from the round-0 view's spread (laundered under byzantine
      // faults so fake extremes cannot inflate the estimate unboundedly).
      std::vector<double> est = view_;
      std::sort(est.begin(), est.end());
      if (cfg_.byzantine_safe_estimate && est.size() > 2 * cfg_.params.t) {
        est = reduce(est, cfg_.params.t);
      }
      const double k = predicted_factor(cfg_.averager, cfg_.params.n, cfg_.params.t);
      budget_known_ = true;
      adopt_budget(std::max<Round>(
          1, rounds_needed(cfg_.adaptive_slack * spread(est), cfg_.epsilon, k)));
    }

    value_ = apply_averager(cfg_.averager, std::span<double>(view_), cfg_.params.t);
    widen_range(value_);
    ++round_;
    collector_.forget_before(round_);

    if (budget_reached()) {
      finish(ctx);
      return;
    }
    begin_round(ctx);
  }
}

void RoundAaProcess::finish(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  output_ = value_;
  finished_ = true;
  if (cfg_.mode == TerminationMode::kAdaptive) {
    ctx.multicast(done_payload(DoneMsg{round_, value_}));
  }
}

}  // namespace apxa::core
