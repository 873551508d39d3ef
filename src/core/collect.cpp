#include "core/collect.hpp"

#include <algorithm>
#include <map>
#include <set>
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
// Reliable-broadcast + witness collect (header comment has the protocol and
// the overlap argument).  Per round r:
//   1. RB-broadcast own value under instance r (rb::VecBrachaHub);
//   2. once own value and a quorum of n - t round-r values are RB-delivered,
//      multicast REPORT(r, bitset of delivered origins);
//   3. accept a report when every origin it lists is delivered locally
//      (reports listing < n - t origins are byzantine hygiene discards);
//   4. freeze on n - t accepted reports (own included): the view is every
//      round-r delivery held at that moment, sorted by origin.
//
// Gating the report on OWN delivery is a deliberate strengthening over bare
// AAD'04: it guarantees the frozen view contains the owner's entry, which
// keeps the certified-honest core of the safe-area fallback non-empty
// (core/multidim.hpp) — and costs nothing, since a correct party's own RB
// instance always delivers (validity).
class EqualizedCollector final : public Collector {
 public:
  EqualizedCollector(SystemParams params, std::uint32_t dim, Round max_rounds,
                     ViewFn on_view, obs::TraceSink* trace)
      : params_(params),
        dim_(dim),
        max_rounds_(max_rounds),
        view_(std::move(on_view)),
        trace_(trace),
        hub_(params, [this](net::Context& ctx, std::uint32_t instance,
                            ProcessId origin, const std::vector<double>& value) {
          on_deliver(ctx, instance, origin, value);
        }) {}

  void begin_round(net::Context& ctx, Round r,
                   const std::vector<double>& value) override {
    self_ = ctx.self();
    round_ = r;
    hub_.broadcast(ctx, r, value);
    recheck(ctx);
  }

  bool handle(net::Context& ctx, ProcessId from, BytesView payload) override {
    self_ = ctx.self();
    // Instance hygiene BEFORE the hub sees the message: no honest party ever
    // tags traffic with a round >= the budget, and echoing a forged
    // out-of-budget RB instance would amplify it into Theta(n^2) honest
    // messages and a permanent hub slot at every correct party.
    if (const auto rb = decode_rb_vec(payload)) {
      if (rb->instance >= max_rounds_) return true;
      hub_.handle(ctx, from, *rb);
      recheck(ctx);
      return true;
    }
    if (const auto rep = decode_report(payload)) {
      if (rep->iter < max_rounds_) on_report(ctx, from, rep->iter, rep->have);
      return true;
    }
    return false;
  }

  [[nodiscard]] bool serve_when_done() const override { return true; }

 private:
  struct RoundState {
    std::map<ProcessId, std::vector<double>> delivered;  ///< origin -> point
    std::map<ProcessId, std::vector<bool>> pending_reports;
    std::set<ProcessId> accepted;  ///< reporters accepted
    bool report_sent = false;
    bool fired = false;
  };

  void on_deliver(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                  const std::vector<double>& value) {
    // Malformed points (wrong dimension, non-finite coordinates) are
    // discarded at every honest party alike (RB agreement makes the
    // delivered bytes identical), so reports stay consistent: an origin
    // discarded here is never listed by an honest reporter either.
    if (value.size() != dim_ || !geom::all_finite(value)) {
      ++malformed_;
      return;
    }
    rounds_[instance].delivered.emplace(origin, value);
    recheck(ctx);
  }

  void on_report(net::Context& ctx, ProcessId from, std::uint32_t iter,
                 std::vector<bool> have) {
    if (have.size() != params_.n) return;  // malformed
    const auto listed = static_cast<std::uint32_t>(
        std::count(have.begin(), have.end(), true));
    if (listed < params_.quorum()) return;  // byzantine under-reporting
    RoundState& st = rounds_[iter];
    if (st.accepted.contains(from)) return;
    st.pending_reports.emplace(from, std::move(have));
    recheck(ctx);
  }

  [[nodiscard]] static bool report_covered(const RoundState& st,
                                           const std::vector<bool>& have) {
    for (ProcessId p = 0; p < have.size(); ++p) {
      if (have[p] && !st.delivered.contains(p)) return false;
    }
    return true;
  }

  // Drive the current round; re-entrant calls (the ViewFn advancing into
  // begin_round, the hub delivering during our own broadcast) fold into the
  // outermost loop instead of recursing.
  void recheck(net::Context& ctx) {
    if (rechecking_) return;
    rechecking_ = true;
    bool progressed = true;
    while (progressed) {
      progressed = false;
      RoundState& st = rounds_[round_];

      if (!st.report_sent && st.delivered.contains(self_) &&
          st.delivered.size() >= params_.quorum()) {
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
        std::vector<CollectEntry> view;
        view.reserve(st.delivered.size());
        for (const auto& [origin, v] : st.delivered) view.push_back({origin, v});
        const Round fired_round = round_;
        note_view_freeze(trace_, self_, fired_round, view.size());
        view_(ctx, fired_round, view);
        // If the ViewFn advanced the round, loop to drive the new one.
        progressed = round_ != fired_round;
      }
    }
    rechecking_ = false;
  }

  SystemParams params_;
  std::uint32_t dim_;
  Round max_rounds_;
  ViewFn view_;
  obs::TraceSink* trace_ = nullptr;
  rb::VecBrachaHub hub_;
  std::map<Round, RoundState> rounds_;
  Round round_ = 0;
  ProcessId self_ = kNoProcess;
  bool rechecking_ = false;
};

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

}  // namespace apxa::core
