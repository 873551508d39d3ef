// Vector approximate agreement in R^d: one round process, two per-view rules.
//
// The natural vector extension of the 1987 round protocol: each round a
// party publishes its current vector, freezes a view of n - t round-tagged
// vectors (at most one per sender, the owner's own always included) through
// the collect engine (core/collect.hpp), and moves to the value the per-view
// rule picks from that view.  The rule fixes the validity guarantee:
//
//  - per-coordinate averaging (geom::average_per_coordinate;
//    ProtocolKind::kVectorCrash and kVectorByz): column c of the view is a
//    1-D multiset and the 1-D averager reduces it.  Requires n > 2t.
//      box validity     — every correct output lies in the per-coordinate
//                         interval hull (bounding box) of the correct inputs;
//      eps-agreement    — pairwise L-infinity distance of outputs <= eps;
//      convergence rate — each coordinate is exactly a 1-D instance, so the
//                         per-round factor is the 1-D factor ((n - t)/t for
//                         the mean rule); all coordinates shrink in lockstep.
//    Byzantine caveat (documented, deliberate): coordinate-wise laundering
//    (reduce_t per coordinate) yields BOX validity only — outputs can leave
//    the *convex* hull of the correct inputs.  The crash model has no such
//    gap: box = product of per-coordinate hulls of genuine values.
//
//  - the safe-area midpoint (geom::safe_midpoint; ProtocolKind::kVectorConvex
//    and kVectorConvexRB): the Mendes-Herlihy / Vaidya-Garg construction
//    (STOC'13 / PODC'13, geom/safe_area.hpp).  A certified safe-area point
//    lies in the hull of the honest entries of the view no matter which
//    <= t entries are byzantine, which is the inductive step of CONVEX
//    validity: outputs stay in the convex hull of the honest inputs, not
//    merely their bounding box.  Requires n > 3t (safe_midpoint needs view
//    slack m > 2t with m = n - t, and Bracha RB needs it outright); the
//    certified regime additionally wants n >= (d+2)t + 1.  The safe area of
//    an m-point view is guaranteed nonempty once m >= (d+1)t + 1
//    (Tverberg), i.e. n >= (d+2)t + 1 for quorum views; where no point is
//    certified the rule falls back to the centroid of the certified-honest
//    core: own value, its echoes and (t+1)-supported values.  The harness
//    measures the resulting convex validity instead of assuming it
//    (VectorRunReport::convex_validity_ok, bench/f6_multidim).
//
// How the view is assembled is the collect mode (core/collect.hpp), and it
// separates the two safe-area kinds.  CollectMode::kQuorum (every kind but
// kVectorConvexRB) costs Theta(n^2) messages per round, but honest views
// may diverge, all safety rests on the per-view rule, and for the safe-area
// rule contraction is scheduler- and adversary-dependent.
// CollectMode::kEqualized (kVectorConvexRB, safe-area rule only) makes any
// two honest round-r views share >= n - t entries, so safe-area averaging
// contracts at the Mendes-Herlihy rate, for Theta(n^3) messages per round.
//
// VectorAaProcess runs on any exec::Backend through the harness layer: build
// a harness::VectorRunConfig and call harness::run — every backend executes
// it, with crash/byzantine fault injection and every scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "core/async_crash.hpp"
#include "core/collect.hpp"
#include "geom/safe_area.hpp"
#include "net/process.hpp"

namespace apxa::core {

/// Observation hook for vector rounds: (party, round, vector at round entry).
/// Round entry 0 reports the input; entry r the value after r averaging
/// steps.  Under a threaded backend it is invoked concurrently from several
/// worker threads, so it must be thread-safe.
using VecTraceFn =
    std::function<void(ProcessId, Round, const std::vector<double>&)>;

/// Observation hook for frozen views: (party, round, frozen view entries).
/// The entry reference is valid only for the duration of the call.  Same
/// thread-safety contract as VecTraceFn.  This is how the harness measures
/// view overlap between honest parties (VectorRunReport::view_overlap_min).
using ViewTraceFn =
    std::function<void(ProcessId, Round, const std::vector<CollectEntry>&)>;

/// The per-view rule: a 1-D averager applied per coordinate, or the
/// safe-area midpoint with its LP tolerance / enumeration budget.
using VectorRule = std::variant<Averager, geom::SafeAreaOptions>;

struct VectorAaConfig {
  SystemParams params;
  std::uint32_t dim = 1;
  std::vector<double> input;  ///< size dim
  Round fixed_rounds = 1;
  VectorRule rule = Averager::kMean;
  /// kEqualized requires the safe-area rule.
  CollectMode collect = CollectMode::kQuorum;
  VecTraceFn trace;        ///< optional observation hook
  ViewTraceFn view_trace;  ///< optional frozen-view hook
  /// Optional obs sink handed to the collect engine: records a kViewFreeze
  /// event per frozen round view (see core/collect.hpp).  Must outlive the
  /// process.
  obs::TraceSink* trace_sink = nullptr;
};

/// Round-based AA process for R^d (fixed-round termination).  Decides
/// through the vector side of the process interface: output() stays empty,
/// vector_output()/has_output() carry the decision on every backend.
/// In quorum-collect mode the traffic is VEC frames (core::encode_vec_round,
/// tag 7), so schedulers' value probes and adversary::ByzVectorProcess attack
/// both rules identically; in equalized mode it is RBVEC_* + REPORT
/// (core/codec.hpp) and the attacker equivocates RB SENDs instead.
class VectorAaProcess final : public net::Process {
 public:
  explicit VectorAaProcess(VectorAaConfig cfg);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;

  [[nodiscard]] bool has_output() const override { return done_; }
  [[nodiscard]] std::optional<std::vector<double>> vector_output() const override {
    return done_ ? std::optional<std::vector<double>>(value_) : std::nullopt;
  }
  [[nodiscard]] Round current_round() const { return round_; }

 private:
  void begin_round(net::Context& ctx);
  void on_view(net::Context& ctx, Round r, const std::vector<CollectEntry>& view);
  /// geom::TrustedMask for the view: own value and its echoes (see the
  /// comment in the implementation).
  std::vector<std::uint8_t> trusted_mask(
      const std::vector<CollectEntry>& view) const;

  VectorAaConfig cfg_;
  std::unique_ptr<Collector> collector_;
  std::vector<double> value_;
  Round round_ = 0;
  bool done_ = false;
  ProcessId self_ = kNoProcess;
};

}  // namespace apxa::core
