#include "core/collect.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
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
// Exactly the collect rule ConvexVectorProcess (and VectorAaProcess) used
// inline before this layer existed: direct multicast of encode_vec_round,
// one entry per sender, freeze at n - t entries with own always included.
// Arrival order is preserved in the frozen view (own entry first).
class QuorumCollector final : public Collector {
 public:
  QuorumCollector(SystemParams params, std::uint32_t dim, Round max_rounds,
                  ViewFn on_view, obs::TraceSink* trace)
      : params_(params),
        dim_(dim),
        max_rounds_(max_rounds),
        view_(std::move(on_view)),
        trace_(trace) {}

  void begin_round(net::Context& ctx, Round r,
                   const std::vector<double>& value) override {
    round_ = r;
    slots_.erase(slots_.begin(), slots_.lower_bound(r));
    add_own(ctx, r, value);
    ctx.multicast(encode_vec_round(r, value));
    maybe_fire(ctx);
  }

  bool handle(net::Context& ctx, ProcessId from, BytesView payload) override {
    auto m = decode_vec_round(payload);
    if (!m) return false;
    add_remote(from, m->first, std::move(m->second));
    maybe_fire(ctx);
    return true;
  }

  [[nodiscard]] bool serve_when_done() const override { return false; }

 private:
  struct Slot {
    std::vector<CollectEntry> entries;  // arrival order, own first
    bool own_added = false;
    bool frozen = false;
    bool fired = false;
  };

  void maybe_freeze(Slot& s) const {
    if (!s.frozen && s.own_added && s.entries.size() >= params_.quorum()) {
      s.frozen = true;
    }
  }

  void add_own(net::Context& ctx, Round r, const std::vector<double>& v) {
    Slot& s = slots_[r];
    APXA_ASSERT(!s.own_added, "own vector added twice");
    s.own_added = true;
    s.entries.push_back({ctx.self(), v});
    maybe_freeze(s);
  }

  void add_remote(ProcessId from, Round r, std::vector<double> v) {
    if (r < round_) return;       // settled round: the view is gone
    if (r >= max_rounds_) return; // beyond the budget: byzantine garbage
    if (v.size() != dim_ || !geom::all_finite(v)) {
      ++malformed_;
      return;
    }
    Slot& s = slots_[r];
    if (s.frozen) return;
    // One point per sender per round: sender-authenticated channels cap the
    // byzantine mass of any frozen view at t entries, which is precisely
    // what the safe-area rule tolerates.
    if (std::any_of(s.entries.begin(), s.entries.end(),
                    [from](const CollectEntry& e) { return e.origin == from; })) {
      return;
    }
    const std::size_t cap =
        s.own_added ? params_.quorum() : params_.quorum() - 1;
    if (s.entries.size() >= cap) return;
    s.entries.push_back({from, std::move(v)});
    maybe_freeze(s);
  }

  void maybe_fire(net::Context& ctx) {
    // Fires only for the round the owner is in: a future-round slot cannot
    // freeze (own entry missing), past rounds are erased.  The ViewFn may
    // re-enter begin_round, which advances round_; the guard folds the
    // nested maybe_fire into this loop, which then drives the new round
    // (whose view may already be frozen from buffered arrivals).
    if (firing_) return;
    firing_ = true;
    while (true) {
      const auto it = slots_.find(round_);
      if (it == slots_.end() || !it->second.frozen || it->second.fired) break;
      it->second.fired = true;
      // Move the view out: begin_round re-entry erases the slot.
      const std::vector<CollectEntry> view = std::move(it->second.entries);
      const Round fired_round = round_;
      note_view_freeze(trace_, ctx.self(), fired_round, view.size());
      view_(ctx, fired_round, view);
      if (round_ == fired_round) break;  // owner did not advance
    }
    firing_ = false;
  }

  SystemParams params_;
  std::uint32_t dim_;
  Round max_rounds_;
  ViewFn view_;
  std::map<Round, Slot> slots_;
  Round round_ = 0;
  bool firing_ = false;
  obs::TraceSink* trace_ = nullptr;
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
// (core/convex_aa.hpp) — and costs nothing, since a correct party's own RB
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
