// Multiset operations and averaging functions for approximate agreement.
//
// These are the "f" functions the convergence-rate literature studies.  Each
// round a party applies one of them to the multiset of values it collected:
//
//   mean      — arithmetic mean; for crash faults this realizes the optimal
//               Theta(n/t) asynchronous convergence rate (two views of size
//               n - t share >= n - 2t elements, so means differ by at most
//               t/(n-t) of the spread).
//   midpoint  — (min + max) / 2; the classic "halving" rule.
//   median    — middle element.
//   reduce_k  — discard the k smallest and k largest elements (byzantine
//               value laundering: with at most k faulty values in the
//               multiset the reduced range lies inside the correct hull).
//   select_k  — keep every k-th element of the sorted multiset (DLPSW's
//               subsampling; composed with reduce it yields their
//               fault-tolerant averaging functions).
//
// All functions take a *sorted* span; callers sort once per round.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace apxa::core {

/// Verify (in tests / debug paths) that values are sorted ascending.
bool is_sorted_values(std::span<const double> v);

/// Remove the k smallest and k largest elements.  Requires v.size() > 2k.
std::vector<double> reduce(std::span<const double> sorted, std::uint32_t k);

/// Keep elements at ranks 0, k, 2k, ... of the sorted multiset.  k >= 1.
std::vector<double> select(std::span<const double> sorted, std::uint32_t k);

double mean(std::span<const double> v);
double midpoint(std::span<const double> sorted);
double median(std::span<const double> sorted);
double spread(std::span<const double> sorted);

/// The averaging rules offered by the protocols.  The byzantine rules take t
/// from the system parameters at application time.
enum class Averager : std::uint8_t {
  kMean,            ///< mean(V)                          — crash-optimal rate
  kMidpoint,        ///< midpoint(V)                      — halving baseline
  kMedian,          ///< median(V)
  kReduceMidpoint,  ///< midpoint(reduce_t(V))            — byzantine halving
  kDlpswSync,       ///< mean(select_t(reduce_t(V)))      — DLPSW synchronous
  kDlpswAsync,      ///< mean(select_2t(reduce_t(V)))     — DLPSW asynchronous
};

/// Apply an averager to a (not necessarily sorted) multiset.  `t` is the
/// fault bound used by the reduce/select based rules.  Throws if the multiset
/// is too small for the requested reduction.  The span form sorts `values`
/// in place and allocates nothing.
double apply_averager(Averager a, std::span<double> values, std::uint32_t t);
double apply_averager(Averager a, std::vector<double> values, std::uint32_t t);

/// True when the averager discards extremes and therefore tolerates byzantine
/// values inside the multiset.
bool averager_is_byzantine_safe(Averager a);

std::string_view averager_name(Averager a);

/// Convex-hull helpers used by invariant checks.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  [[nodiscard]] bool contains(double v, double slack = 1e-9) const {
    return v >= lo - slack && v <= hi + slack;
  }
  [[nodiscard]] double width() const { return hi - lo; }
};

/// Hull of a non-empty set of values.
Interval hull_of(std::span<const double> values);

}  // namespace apxa::core
