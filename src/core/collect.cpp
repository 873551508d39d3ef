#include "core/collect.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/ensure.hpp"
#include "core/codec.hpp"
#include "core/round_engine.hpp"
#include "geom/geom.hpp"

namespace apxa::core {

namespace {

void note_view_freeze(obs::TraceSink* trace, ProcessId owner, Round r,
                      std::size_t view_size) {
  if (!trace) return;
  trace->record(obs::EventKind::kViewFreeze, owner, 0, static_cast<std::int64_t>(r),
                static_cast<double>(view_size), 0.0);
}

// --- quorum collect ---------------------------------------------------------
//
// Direct multicast of encode_vec_round; the n - t freeze rule is
// core::RoundCollector's (one entry per sender, own always included, rounds
// past max_rounds or already entered dropped), here over dim-wide points.
// The frozen view keeps arrival order: round r + 1 values that arrive before
// the owner enters r + 1 come before its own entry.
// No lookahead (it would drop honest early frames), so one forged frame for a
// round below max_rounds grows the ring to < 2 * max_rounds slots, as at dim 1.
class QuorumCollector final : public Collector {
 public:
  QuorumCollector(SystemParams params, std::uint32_t dim, Round max_rounds,
                  ViewFn on_view, obs::TraceSink* trace)
      : ring_(params, max_rounds, kNoRound, dim),
        view_fn_(std::move(on_view)),
        trace_(trace) {}

  void begin_round(net::Context& ctx, Round r,
                   const std::vector<double>& value) override {
    round_ = r;
    ring_.forget_before(r);
    ring_.add_own(r, value);
    ctx.multicast(encode_vec_round(r, value));
    maybe_fire(ctx);
  }

  bool handle(net::Context& ctx, ProcessId from, BytesView payload) override {
    const auto m = decode_vec_round(payload);
    if (!m) return false;
    ring_.add_remote(from, m->first, m->second);
    malformed_ = ring_.malformed();
    maybe_fire(ctx);
    return true;
  }

  [[nodiscard]] bool serve_when_done() const override { return false; }

 private:
  void maybe_fire(net::Context& ctx) {
    // Fires only for the round the owner is in: a future round cannot freeze
    // (own entry missing).  The view is copied out and its round forgotten
    // (so it fires once) before the ViewFn re-enters begin_round, which may
    // grow the ring; the guard folds that nested maybe_fire into this loop,
    // which then drives the new round.
    if (firing_) return;
    firing_ = true;
    while (ring_.ready(round_)) {
      const auto points = ring_.view(round_);
      const auto from = ring_.contributors(round_);
      view_.resize(from.size());
      for (std::size_t i = 0; i < from.size(); ++i) {
        view_[i].origin = from[i] == kNoProcess ? ctx.self() : from[i];
        const auto point = points.subspan(i * ring_.dim(), ring_.dim());
        view_[i].value.assign(point.begin(), point.end());
      }
      ring_.forget_before(round_ + 1);
      note_view_freeze(trace_, ctx.self(), round_, view_.size());
      view_fn_(ctx, round_, view_);
    }
    firing_ = false;
  }

  RoundCollector ring_;
  ViewFn view_fn_;
  obs::TraceSink* trace_ = nullptr;
  std::vector<CollectEntry> view_;  // the fired round's view, reused
  Round round_ = 0;
  bool firing_ = false;
};

// --- equalized collect ------------------------------------------------------
//
// WitnessPhase over R^d points, with the report gated on own delivery so the
// owner's entry is in every frozen view.  The view is copied out (by origin)
// before the ViewFn runs.
class EqualizedCollector final : public Collector {
 public:
  EqualizedCollector(SystemParams params, std::uint32_t dim, Round max_rounds,
                     ViewFn on_view, obs::TraceSink* trace)
      : view_fn_(std::move(on_view)),
        phase_(params, max_rounds, ReportGate::kOwnDelivered,
               [this](net::Context& ctx, Round r,
                      const WitnessPhase<std::vector<double>>::View& view) {
                 view_.clear();
                 for (const auto& [origin, v] : view) view_.push_back({origin, v});
                 view_fn_(ctx, r, view_);
               },
               dim, trace) {}

  void begin_round(net::Context& ctx, Round r,
                   const std::vector<double>& value) override {
    phase_.begin_round(ctx, r, value);
    malformed_ = phase_.malformed();
  }

  bool handle(net::Context& ctx, ProcessId from, BytesView payload) override {
    const bool consumed = phase_.handle(ctx, from, payload);
    malformed_ = phase_.malformed();
    return consumed;
  }

  [[nodiscard]] bool serve_when_done() const override { return true; }

 private:
  ViewFn view_fn_;
  std::vector<CollectEntry> view_;  // the fired round's view, reused
  WitnessPhase<std::vector<double>> phase_;
};

bool well_formed(double value, std::uint32_t) { return std::isfinite(value); }

bool well_formed(const std::vector<double>& value, std::uint32_t dim) {
  return value.size() == dim && geom::all_finite(value);
}

}  // namespace

std::unique_ptr<Collector> make_collector(CollectMode mode, SystemParams params,
                                          std::uint32_t dim, Round max_rounds,
                                          Collector::ViewFn on_view,
                                          obs::TraceSink* trace) {
  APXA_ENSURE(on_view != nullptr, "collect view callback required");
  APXA_ENSURE(dim >= 1, "dimension must be positive");
  switch (mode) {
    case CollectMode::kQuorum:
      return std::make_unique<QuorumCollector>(params, dim, max_rounds,
                                               std::move(on_view), trace);
    case CollectMode::kEqualized:
      return std::make_unique<EqualizedCollector>(params, dim, max_rounds,
                                                  std::move(on_view), trace);
  }
  APXA_ASSERT(false, "unknown collect mode");
}

// --- witness phase ------------------------------------------------------------

template <class Value>
WitnessPhase<Value>::WitnessPhase(SystemParams params, Round max_rounds,
                                  ReportGate gate, ViewFn on_view,
                                  std::uint32_t dim, obs::TraceSink* trace)
    : params_(params),
      max_rounds_(max_rounds),
      gate_(gate),
      view_fn_(std::move(on_view)),
      dim_(dim),
      trace_(trace),
      hub_(params, [this](net::Context& ctx, std::uint32_t instance,
                          ProcessId origin, const Value& value) {
        on_deliver(ctx, instance, origin, value);
      }) {
  APXA_ENSURE(view_fn_ != nullptr, "witness view callback required");
}

template <class Value>
void WitnessPhase<Value>::begin_round(net::Context& ctx, Round r,
                                      const Value& value) {
  self_ = ctx.self();
  round_ = r;
  hub_.broadcast(ctx, r, value);
  recheck(ctx);
}

template <class Value>
bool WitnessPhase<Value>::handle(net::Context& ctx, ProcessId from,
                                 BytesView payload) {
  self_ = ctx.self();
  // Instance hygiene BEFORE the hub sees the message (see the header).  A
  // delivery rechecks the round from on_deliver; no other RB traffic can
  // move it.
  if (const auto rb = rb::RbWire<Value>::decode(payload)) {
    if (rb->instance < max_rounds_) hub_.handle(ctx, from, *rb);
    return true;
  }
  if (auto rep = decode_report(payload)) {
    if (rep->iter < max_rounds_) on_report(ctx, from, rep->iter, std::move(rep->have));
    return true;
  }
  return false;
}

template <class Value>
void WitnessPhase<Value>::on_deliver(net::Context& ctx, std::uint32_t instance,
                                     ProcessId origin, const Value& value) {
  if (!well_formed(value, dim_)) {
    ++malformed_;
    return;
  }
  rounds_[instance].delivered.emplace(origin, value);
  recheck(ctx);
}

template <class Value>
void WitnessPhase<Value>::on_report(net::Context& ctx, ProcessId from,
                                    std::uint32_t iter, std::vector<bool> have) {
  if (have.size() != params_.n) return;  // malformed
  const auto listed = static_cast<std::uint32_t>(
      std::count(have.begin(), have.end(), true));
  if (listed < params_.quorum()) return;  // byzantine under-reporting
  RoundState& st = rounds_[iter];
  if (st.accepted.contains(from)) return;
  st.pending_reports.emplace(from, std::move(have));
  recheck(ctx);
}

template <class Value>
bool WitnessPhase<Value>::report_covered(const RoundState& st,
                                         const std::vector<bool>& have) {
  for (ProcessId p = 0; p < have.size(); ++p) {
    if (have[p] && !st.delivered.contains(p)) return false;
  }
  return true;
}

// Drive the current round; re-entrant calls (the ViewFn advancing into
// begin_round, the hub delivering during our own broadcast) fold into the
// outermost loop instead of recursing.
template <class Value>
void WitnessPhase<Value>::recheck(net::Context& ctx) {
  if (rechecking_) return;
  rechecking_ = true;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    RoundState& st = rounds_[round_];

    if (!st.report_sent && st.delivered.size() >= params_.quorum() &&
        (gate_ == ReportGate::kAnyQuorum || st.delivered.contains(self_))) {
      st.report_sent = true;
      std::vector<bool> have(params_.n, false);
      for (const auto& [origin, v] : st.delivered) have[origin] = true;
      ctx.multicast(encode_report(ReportMsg{round_, std::move(have)}));
      st.accepted.insert(self_);  // own report is trivially covered
      progressed = true;
    }

    if (st.report_sent) {
      for (auto it = st.pending_reports.begin();
           it != st.pending_reports.end();) {
        if (report_covered(st, it->second)) {
          st.accepted.insert(it->first);
          it = st.pending_reports.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
    }

    if (!st.fired && st.accepted.size() >= params_.quorum()) {
      st.fired = true;
      const Round fired_round = round_;
      note_view_freeze(trace_, self_, fired_round, st.delivered.size());
      view_fn_(ctx, fired_round, st.delivered);
      // If the ViewFn advanced the round, loop to drive the new one.
      progressed = round_ != fired_round;
    }
  }
  rechecking_ = false;
}

template class WitnessPhase<double>;
template class WitnessPhase<std::vector<double>>;

}  // namespace apxa::core
