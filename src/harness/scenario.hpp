// Scenario specification for end-to-end asynchronous executions.
//
// One RunConfig describes a complete experiment — system size, protocol,
// averaging rule, termination mode, inputs, scheduler, adversary (crash and
// byzantine specs) — independently of the transport that executes it.  The
// harness (harness.hpp) builds processes and fault plans from it once and
// runs them on any exec::Backend; RunReport carries the backend-independent
// verdicts:
//   validity        — every correct output lies in the hull of the
//                     non-byzantine parties' inputs;
//   eps-agreement   — every two correct outputs differ by at most eps;
// plus the per-round spread trace (for the convergence-rate experiments),
// the communication metrics, and the finish time (Delta-normalized
// asynchronous round complexity on the simulator; wall-clock seconds on the
// threaded backend).
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "common/ids.hpp"
#include "core/async_crash.hpp"
#include "net/metrics.hpp"
#include "net/status.hpp"
#include "netio/fault.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace apxa::harness {

enum class ProtocolKind : std::uint8_t {
  kCrashRound,   ///< Fekete-style round-based (crash model)
  kByzRound,     ///< DLPSW asynchronous byzantine (t < n/5)
  kWitness,      ///< AAD'04 witness technique (t < n/3)
  kVectorCrash,  ///< coordinate-wise R^d rounds (crash model) — VectorRunConfig
  kVectorByz,    ///< coordinate-wise R^d laundering (box validity only) — VectorRunConfig
  kVectorConvex, ///< safe-area R^d averaging, quorum collect (convex validity, n > 3t) — VectorRunConfig
  /// Safe-area R^d averaging over the view-equalized collect layer: values
  /// travel by Bracha reliable broadcast and freezing is witness-gated
  /// (core/collect.hpp, CollectMode::kEqualized), so any two honest round-r
  /// views share >= n - t common entries and equivocation is structurally
  /// neutralized.  Theta(n^3) messages per round vs kVectorConvex's
  /// Theta(n^2) — the cost the view-overlap guarantee buys.  n > 3t.
  kVectorConvexRB,
};

enum class SchedKind : std::uint8_t {
  kRandom,
  kFifo,
  kGreedySplit,
  kTargeted,
  kClique,  ///< isolates the last t parties from an (n-t)-clique
};

enum class BackendKind : std::uint8_t {
  kSim,     ///< deterministic discrete-event simulator (net::SimNetwork)
  kThread,  ///< threaded runtime, real concurrency (rt::ThreadNetwork)
  kSocket,  ///< loopback UDP runtime, perfect links over real datagrams
            ///< (rt::SocketNetwork)
};

/// What a scalar and a vector run share: system, averaging rule, round
/// budget, scheduler, adversary, transport and observability.  Staging,
/// fault-plan checks and the backend factory work on this part alone.
struct RunConfigBase {
  SystemParams params;
  /// Round-based protocols only.  kByzRound / kVectorByz override it with
  /// the byzantine-safe DLPSW rule.
  core::Averager averager = core::Averager::kMean;
  Round fixed_rounds = 1;       ///< iterations (fixed mode / witness / live horizon)
  double epsilon = 1e-3;        ///< agreement target (L-infinity on vectors)
  SchedKind sched = SchedKind::kRandom;
  std::uint64_t seed = 1;
  std::vector<adversary::CrashSpec> crashes;
  std::vector<adversary::ByzSpec> byz;
  std::uint64_t max_deliveries = 50'000'000;
  /// Which transport executes the scenario (run() dispatches on this; the
  /// scheduler/seed fields only affect the simulator).
  BackendKind backend = BackendKind::kSim;
  /// Wall-clock cap for the threaded backend (ignored by the simulator).
  std::chrono::milliseconds thread_timeout{20'000};
  /// Deterministic loss/reorder/delay injection at the socket boundary
  /// (socket backend only; ignored elsewhere).  Defaults to no injection.
  netio::FaultConfig socket_faults;
  /// Optional obs::TraceSink the transport records events into.  Must
  /// outlive the run; null (default) disables tracing.  On the simulator
  /// the protocol-domain events replay bit for bit from the config.
  obs::TraceSink* trace = nullptr;
  /// When non-empty AND tracing is on, a failed verdict (validity or
  /// eps-agreement) dumps the flight record (last events per party) to this
  /// path.  Benches that fail verdicts by design leave this empty.
  std::string flight_dump;
};

struct RunConfig : RunConfigBase {
  ProtocolKind protocol = ProtocolKind::kCrashRound;
  core::TerminationMode mode = core::TerminationMode::kFixedRounds;
  double adaptive_slack = 4.0;
  std::vector<double> inputs;   ///< size n; faulty parties' entries unused
  /// Allow more than t faults — used by the resilience-boundary experiments
  /// to demonstrate how safety breaks when assumptions are violated.
  bool allow_excess_faults = false;
};

/// The backend-independent part of every report.
struct RunReportBase {
  net::RunStatus status = net::RunStatus::kQueueDrained;
  bool all_output = false;
  double finish_time = 0.0;             ///< max output time (Delta units on sim)
  /// The run's transport metrics, moved in by harness::execute.  A
  /// harness::Session's per-instance reports leave them default-constructed:
  /// the transport is shared, and SessionReport::metrics holds its one copy.
  net::Metrics metrics;
  /// Executor telemetry (worker claims/steals/idle spins on the threaded
  /// backend).  Only `workers` is set on the simulator and socket backends.
  obs::ExecStats exec_stats;
  Round max_round_reached = 0;
};

struct RunReport : RunReportBase {
  std::vector<double> outputs;          ///< correct parties' outputs
  bool validity_ok = false;
  double worst_pair_gap = 0.0;
  bool agreement_ok = false;            ///< worst_pair_gap <= eps
  std::vector<double> spread_by_round;  ///< correct-party spread at round entry
  /// Per-round observed convergence factors spread[r] / spread[r+1]
  /// (only rounds where both spreads are positive).
  std::vector<double> round_factors;
};

// --- vector-valued (R^d) scenarios ------------------------------------------
//
// The coordinate-wise extension of the round protocol as a first-class
// scenario: same schedulers, adversaries and backends as the scalar path,
// with verdicts stated in the geometry the literature uses — BOX validity
// (the bounding box of the non-byzantine inputs), CONVEX-HULL validity (the
// LP point-in-hull test of geom/safe_area.hpp, reported as a diagnostic on
// every vector run) and L-infinity eps-agreement.  kVectorByz launders per
// coordinate (reduce-based rule), so its validity guarantee is the box, NOT
// the convex hull, of the honest inputs; kVectorConvex averages through the
// Mendes-Herlihy/Vaidya-Garg safe area (core::VectorAaProcess's safe-area
// rule) and targets convex validity.  See the caveats in core/multidim.hpp and geom/geom.hpp.

struct VectorRunConfig : RunConfigBase {
  /// kVectorCrash / kVectorByz / kVectorConvex / kVectorConvexRB
  ProtocolKind protocol = ProtocolKind::kVectorCrash;
  std::uint32_t dim = 2;
  std::vector<std::vector<double>> inputs;  ///< n rows of dim columns
};

struct VectorRunReport : RunReportBase {
  std::vector<std::vector<double>> outputs;  ///< correct parties' vectors
  bool box_validity_ok = false;   ///< outputs inside the honest-input box
  /// Outputs inside the CONVEX HULL of the honest inputs (LP point-in-hull
  /// test, geom/safe_area.hpp).  Reported for every vector protocol: it is
  /// the guarantee kVectorConvex targets and the diagnostic that quantifies
  /// how often kVectorByz's box-valid outputs escape the honest hull.
  bool convex_validity_ok = false;
  /// How many correct outputs lie outside that hull (0 when convex-valid).
  std::uint32_t outputs_outside_hull = 0;
  double worst_linf_gap = 0.0;    ///< worst pairwise L-infinity distance
  double worst_l2_gap = 0.0;      ///< worst pairwise L2 distance (<= sqrt(d) * linf)
  bool agreement_ok = false;      ///< worst_linf_gap <= eps
  /// Correct-party L-infinity spread at each round entry.
  std::vector<double> linf_spread_by_round;

  /// First round entry whose correct-party L-infinity spread is <= epsilon
  /// (valid when reached_eps; compare protocols' convergence speed without
  /// re-running at different budgets).
  Round rounds_to_eps = 0;
  bool reached_eps = false;

  // --- view-overlap verdict --------------------------------------------------
  //
  // The property view equalization buys: any two honest parties' frozen
  // round-r views must share >= n - t common (origin, value) entries drawn
  // from a common pool.  kVectorConvexRB guarantees it structurally (RB +
  // witness reports); plain quorum collect (every other vector kind) does
  // NOT — an equivocator showing different values to different parties
  // drives the overlap below n - t.
  // Measured from the frozen-view trace (core::ViewTraceFn); entries match
  // when origin AND bitwise value agree.
  /// True when at least one round had two correct frozen views to compare.
  bool view_overlap_measured = false;
  /// Min over rounds and correct-party pairs of the common-entry count.
  std::uint32_t view_overlap_min = 0;
  /// view_overlap_min >= n - t over every measured round (vacuously false
  /// when nothing was measured).
  bool view_overlap_ok = false;

  // --- per-phase message counts (from net::Metrics::sent_by_tag) ------------
  /// Direct value messages (ROUND + VEC tags): all the traffic of quorum
  /// collect.
  std::uint64_t msgs_value = 0;
  /// Reliable-broadcast traffic (scalar + vector SEND/ECHO/READY tags).
  std::uint64_t msgs_rb_send = 0, msgs_rb_echo = 0, msgs_rb_ready = 0;
  /// Witness reports (REPORT tag).
  std::uint64_t msgs_report = 0;
};

/// Convenience: evenly spaced inputs over [lo, hi].
std::vector<double> linear_inputs(std::uint32_t n, double lo, double hi);

/// Convenience: a/n parties at hi, the rest at lo (the binary configurations
/// the lower-bound arguments use).
std::vector<double> split_inputs(std::uint32_t n, std::uint32_t count_hi, double lo,
                                 double hi);

/// Convenience: uniform random inputs in [lo, hi].
std::vector<double> random_inputs(Rng& rng, std::uint32_t n, double lo, double hi);

/// Convenience: n points drawn uniformly from the box [lo, hi]^dim.
std::vector<std::vector<double>> random_vector_inputs(Rng& rng, std::uint32_t n,
                                                      std::uint32_t dim, double lo,
                                                      double hi);

/// Convenience: count_hi parties at the hi corner of [lo, hi]^dim, the rest
/// at the lo corner — the vector analogue of split_inputs (every coordinate
/// is simultaneously at its 1-D worst case).
std::vector<std::vector<double>> corner_split_inputs(std::uint32_t n,
                                                     std::uint32_t dim,
                                                     std::uint32_t count_hi,
                                                     double lo, double hi);

}  // namespace apxa::harness
