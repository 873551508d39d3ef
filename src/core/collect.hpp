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
//   kEqualized — the Mendes-Herlihy / AAD'04 collect: the round runs on
//                WitnessPhase below (values by Bracha reliable broadcast,
//                freezing gated by witness reports), so any two honest
//                round-r views overlap in >= n - t common (origin, value)
//                entries drawn from one common pool, and the textbook
//                per-round contraction bounds apply to the averaging rule
//                instead of being scheduler luck.
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
#include <map>
#include <memory>
#include <set>
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
  /// echoes/readies for totality (see WitnessPhase).
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

/// When a witness phase multicasts its round-r REPORT.
enum class ReportGate : std::uint8_t {
  /// On any n - t round-r deliveries, as in AAD'04 (the scalar witness
  /// protocol, witness/aad04.hpp).
  kAnyQuorum,
  /// On n - t round-r deliveries that include the owner's own value (the
  /// equalized collect): every frozen view then holds the owner's entry,
  /// which VectorAaProcess::trusted_mask relies on.  It costs no liveness,
  /// since a correct party's own RB instance always delivers.
  kOwnDelivered,
};

/// The witness phase of AAD'04: the one engine behind the scalar witness
/// protocol (Value = double, RB_* frames) and the equalized collect
/// (Value = std::vector<double>, RBVEC_* frames).  Per round r:
///   1. RB-broadcast own value under instance r (rb::BasicBrachaHub<Value>);
///      a delivered value that is non-finite or not `dim` wide is dropped
///      and counted in malformed() — at every honest party alike, since RB
///      agreement makes the delivered bytes identical, so no honest report
///      ever lists such an origin;
///   2. once n - t round-r values are delivered (subject to the ReportGate),
///      multicast REPORT(r, bitset of delivered origins);
///   3. accept a report once every origin it lists is delivered locally;
///      reports of the wrong size or listing fewer than n - t origins are
///      discarded (byzantine hygiene);
///   4. freeze on n - t accepted reports (own included): the view is every
///      round-r delivery held at that moment, by origin.
///
/// Why this equalizes views: any two honest parties' accepted report sets
/// intersect in n - 2t >= t + 1 reporters, so some correct reporter's n - t
/// listed origins are delivered at both — and RB agreement makes those
/// values bitwise identical.  Any two honest round-r views therefore share
/// >= n - t (origin, value) entries, and an equivocating origin has at most
/// one value delivered anywhere.  Cost: n parallel RB broadcasts of
/// Theta(n^2) messages each plus n^2 reports, Theta(n^3) per round.
///
/// Traffic tagged with a round >= max_rounds is dropped before the hub sees
/// it: no honest party emits it, and echoing a forged out-of-budget RB
/// instance would amplify it into Theta(n^2) honest messages and a
/// permanent hub slot at every correct party.  The owner must keep feeding
/// handle() after it has decided: laggards' RB instances need this party's
/// echoes and readies for totality.
template <class Value>
class WitnessPhase {
 public:
  /// A frozen view: origin -> delivered value.
  using View = std::map<ProcessId, Value>;
  /// Called exactly once per round, with the frozen round-r view (valid for
  /// the call only).  May re-enter begin_round() for round r + 1.
  using ViewFn = std::function<void(net::Context&, Round, const View&)>;

  /// Requires params.n > 3t and a non-null `on_view` (throws otherwise).
  /// `trace` (optional, must outlive the engine) records an
  /// obs::EventKind::kViewFreeze event per frozen view.
  WitnessPhase(SystemParams params, Round max_rounds, ReportGate gate,
               ViewFn on_view, std::uint32_t dim = 1,
               obs::TraceSink* trace = nullptr);
  WitnessPhase(const WitnessPhase&) = delete;
  WitnessPhase& operator=(const WitnessPhase&) = delete;

  /// Enter round r (strictly increasing calls) and RB-broadcast `value`.
  void begin_round(net::Context& ctx, Round r, const Value& value);

  /// Feed an incoming payload; true if it is an RB frame of this engine's
  /// wire format or a REPORT.
  bool handle(net::Context& ctx, ProcessId from, BytesView payload);

  /// RB deliveries dropped as non-finite or of the wrong width.
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }
  /// (instance, origin) slots held by the RB hub (diagnostics).
  [[nodiscard]] std::size_t live_slots() const { return hub_.live_slots(); }

 private:
  struct RoundState {
    View delivered;
    std::map<ProcessId, std::vector<bool>> pending_reports;
    std::set<ProcessId> accepted;  ///< reporters accepted
    bool report_sent = false;
    bool fired = false;
  };

  void on_deliver(net::Context& ctx, std::uint32_t instance, ProcessId origin,
                  const Value& value);
  void on_report(net::Context& ctx, ProcessId from, std::uint32_t iter,
                 std::vector<bool> have);
  [[nodiscard]] static bool report_covered(const RoundState& st,
                                           const std::vector<bool>& have);
  void recheck(net::Context& ctx);

  SystemParams params_;
  Round max_rounds_;
  ReportGate gate_;
  ViewFn view_fn_;
  std::uint32_t dim_;
  obs::TraceSink* trace_ = nullptr;
  rb::BasicBrachaHub<Value> hub_;
  std::map<Round, RoundState> rounds_;
  Round round_ = 0;
  ProcessId self_ = kNoProcess;
  std::uint64_t malformed_ = 0;
  bool rechecking_ = false;
};

extern template class WitnessPhase<double>;
extern template class WitnessPhase<std::vector<double>>;

}  // namespace apxa::core
