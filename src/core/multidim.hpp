// Multidimensional approximate agreement in R^d (coordinate-wise).
//
// The natural vector extension of the 1987 round protocol: each round a
// party multicasts its current vector, waits for n - t round-tagged vectors,
// and applies the averaging rule *per coordinate* (geom::average_per_coordinate).
// One message per round carries all d coordinates, so the message complexity
// stays Theta(n^2) per round and only the bit complexity scales with d.
//
// Guarantees (crash faults):
//   box validity     — every correct output lies in the per-coordinate
//                      interval hull (bounding box) of the correct inputs;
//   eps-agreement    — pairwise L-infinity distance of outputs <= eps;
//   convergence rate — each coordinate is exactly a 1-D instance, so the
//                      per-round factor is the 1-D factor ((n - t)/t for the
//                      mean rule); all coordinates shrink in lockstep.
//
// Byzantine caveat (documented, deliberate): coordinate-wise laundering
// (reduce_t per coordinate) yields BOX validity only — outputs can leave the
// *convex* hull of the correct inputs, which is why multidimensional
// byzantine AA with convex validity required new machinery in the follow-on
// literature (Mendes-Herlihy STOC'13 / Vaidya-Garg PODC'13: safe areas,
// Tverberg points).  That machinery lives in geom/safe_area.hpp and runs as
// core::ConvexVectorProcess (ProtocolKind::kVectorConvex); this process
// keeps the cheap box-valid rule.  The crash model has no such gap: box =
// product of per-coordinate hulls of genuine values.
//
// VectorAaProcess runs on any exec::Backend through the harness layer: build
// a harness::VectorRunConfig (protocol kVectorCrash or kVectorByz) and call
// harness::run — every backend executes it, with crash/byzantine fault
// injection and every scheduler.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "core/async_crash.hpp"
#include "net/process.hpp"

namespace apxa::core {

/// Observation hook for vector rounds: (party, round, vector at round entry).
/// Round entry 0 reports the input; entry r the value after r averaging
/// steps.  Under a threaded backend it is invoked concurrently from several
/// worker threads, so it must be thread-safe.
using VecTraceFn =
    std::function<void(ProcessId, Round, const std::vector<double>&)>;

struct VectorAaConfig {
  SystemParams params;
  std::uint32_t dim = 1;
  std::vector<double> input;  ///< size dim
  Averager averager = Averager::kMean;
  Round fixed_rounds = 1;
  VecTraceFn trace;           ///< optional observation hook
};

/// Round-based coordinate-wise AA process for R^d (fixed-round termination).
/// Decides through the vector side of the process interface: output() stays
/// empty, vector_output()/has_output() carry the decision on every backend.
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
  struct Slot {
    std::vector<std::vector<double>> values;  // arrival order
    std::vector<ProcessId> contributors;
    bool own_added = false;
    bool frozen = false;
  };

  void begin_round(net::Context& ctx);
  void try_advance(net::Context& ctx);
  Slot& slot(Round r);
  void maybe_freeze(Slot& s) const;
  void add_own(Round r, const std::vector<double>& v);
  void add_remote(ProcessId from, Round r, std::vector<double> v);

  VectorAaConfig cfg_;
  std::map<Round, Slot> slots_;
  std::vector<double> value_;
  Round round_ = 0;
  bool done_ = false;
  ProcessId self_ = kNoProcess;
};

/// Wire format for vector rounds (tag 7): [round][dim][f64 x dim][budget=0].
Bytes encode_vec_round(Round r, const std::vector<double>& v);
std::optional<std::pair<Round, std::vector<double>>> decode_vec_round(
    BytesView payload);

}  // namespace apxa::core
