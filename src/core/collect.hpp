// Round-collect engines: how a round-based process assembles its view.
//
// Every round-based protocol in this codebase has the same inner loop —
// publish the current value under a round tag, assemble a view of n - t
// round-r values (at most one per sender), freeze it, average, advance.
// What differs between the textbook variants is HOW the view is assembled,
// and that choice carries real guarantees:
//
//   kQuorum    — direct multicast + first-(n-t)-arrivals freeze (the collect
//                rule of the 1987 round protocols: core::RoundCollector's, as
//                in the scalar round protocols).  One message per party per
//                round, Theta(n^2) total.  Sender-authenticated channels cap
//                the byzantine mass of a frozen view at t entries, but a
//                byzantine party may show DIFFERENT values to different
//                honest parties, and asynchrony lets even honest entries
//                differ arbitrarily between two views: any two honest round-r
//                views are only guaranteed to overlap in |A ∩ B| >= n - 3t
//                entries.  All safety rests on the averaging rule.
//
//   kEqualized — the Mendes-Herlihy / AAD'04 collect: values travel by
//                Bracha reliable broadcast (rb::VecBrachaHub), and freezing
//                is gated by a witness phase.  A party that has RB-delivered
//                its own value plus a quorum of n - t round-r values
//                multicasts a REPORT listing the delivered origins; it
//                accepts a report once every origin the report lists has
//                been RB-delivered locally (reports listing fewer than n - t
//                origins are discarded — byzantine hygiene); and it freezes
//                its view — ALL round-r deliveries held at that moment —
//                once n - t reports (its own included) are accepted.
//
//                Why this equalizes views: any two honest parties' accepted
//                report sets intersect in n - 2t >= t + 1 reporters, so some
//                *correct* reporter's n - t listed origins are RB-delivered
//                at both parties — and RB agreement makes those shared
//                values IDENTICAL (bitwise: they are the same delivery).
//                Hence any two honest round-r views overlap in >= n - t
//                common (origin, value) entries drawn from one common pool,
//                equivocation is structurally neutralized (an equivocating
//                origin has at most ONE value delivered anywhere, or none),
//                and the textbook per-round contraction bounds apply to the
//                averaging rule instead of being scheduler luck.  Cost:
//                n parallel RB broadcasts of Theta(n^2) each plus n^2
//                reports — Theta(n^3) messages per round, the measured
//                price of view equalization (net::Metrics::sent_by_tag).
//
// The engine is a component embedded in a Process (the same pattern as
// rb::BrachaHub): the owner calls begin_round() when it enters a round and
// feeds every payload to handle(); the engine invokes the ViewFn exactly
// once per round when that round's view freezes.  The ViewFn may re-enter
// begin_round() for the next round (and usually does).
//
// core::VectorAaProcess runs on these engines: every vector protocol kind on
// the quorum engine except kVectorConvexRB, which is the safe-area rule on
// the equalized engine.  The entries are R^d points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "net/process.hpp"
#include "obs/trace.hpp"
#include "rb/bracha.hpp"

namespace apxa::core {

enum class CollectMode : std::uint8_t {
  kQuorum,     ///< direct multicast, first n - t arrivals freeze the view
  kEqualized,  ///< reliable broadcast + witness reports (view equalization)
};

/// One view entry: who contributed the point.  In a frozen view origins are
/// distinct, the owner's own entry is always present, and at most t entries
/// are byzantine.
struct CollectEntry {
  ProcessId origin = kNoProcess;
  std::vector<double> value;
};

class Collector {
 public:
  /// Called exactly once per round, with the frozen round-r view.  May
  /// re-enter begin_round() for round r + 1.
  using ViewFn = std::function<void(net::Context&, Round,
                                    const std::vector<CollectEntry>&)>;

  virtual ~Collector() = default;

  /// Enter round r (strictly increasing calls) and publish `value`.
  virtual void begin_round(net::Context& ctx, Round r,
                           const std::vector<double>& value) = 0;

  /// Feed an incoming payload; true if consumed (an RB / report / round
  /// message of this engine's wire format).
  virtual bool handle(net::Context& ctx, ProcessId from, BytesView payload) = 0;

  /// Whether the owner must keep feeding handle() after it has decided.
  /// True for the equalized engine: laggards' RB instances need this party's
  /// echoes/readies for totality (same obligation as witness/aad04.hpp).
  [[nodiscard]] virtual bool serve_when_done() const = 0;

  /// Remote points discarded as malformed: the wrong dimension or a NaN or
  /// infinite coordinate (no correct party sends one, and one admitted into
  /// a view would poison every average it enters).
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }

 protected:
  std::uint64_t malformed_ = 0;
};

/// Build a collect engine.  `dim` is the expected point dimension (entries
/// of other sizes, or with a non-finite coordinate, are discarded as
/// malformed); `on_view` must be non-null.
/// `max_rounds` is the owner's round budget: traffic tagged with a round or
/// instance >= max_rounds is dropped outright — no honest party ever emits
/// it, and without the bound a byzantine peer could grow per-round state
/// (and, in the equalized engine, provoke Theta(n^2) echo traffic per
/// forged RB instance) without limit.  The equalized engine requires
/// params.n > 3t (Bracha's bound).  `trace` (optional, must outlive the
/// engine) records an obs::EventKind::kViewFreeze event each time a round's
/// view freezes — party = owner, round = r, value = frozen-view size.
std::unique_ptr<Collector> make_collector(CollectMode mode, SystemParams params,
                                          std::uint32_t dim, Round max_rounds,
                                          Collector::ViewFn on_view,
                                          obs::TraceSink* trace = nullptr);

}  // namespace apxa::core
