// Geometry primitives for vector-valued (R^d) approximate agreement.
//
// The 1987 round protocol extends to R^d coordinate-wise: every guarantee is
// a product of 1-D guarantees, so the geometric objects the verdicts need are
// boxes (products of per-coordinate intervals), not general convex hulls.
// This module collects the primitives shared by the synchronous baseline
// (core::run_sync_vector), the asynchronous protocol (core::VectorAaProcess)
// and the harness verdict layer (harness::run on a VectorRunConfig):
//
//   Box / box_hull      — per-coordinate interval hull (bounding box) of a
//                         point set; the validity region of coordinate-wise
//                         protocols in the crash model;
//   linf / l2 distance  — the two metrics the literature reports: agreement
//                         is stated in L-infinity (where coordinate-wise
//                         convergence is exact), L2 is the "physical" gap in
//                         the rendezvous/clock-sync motivations (<= sqrt(d)
//                         times the L-infinity gap);
//   spreads             — worst pairwise distance of a point set;
//   per-coordinate averaging — one column of the view is a 1-D multiset; the
//                         round rule is the 1-D averager applied per column.
//
// Byzantine caveat (the reason this module speaks of boxes, not hulls):
// coordinate-wise laundering yields BOX validity only — outputs can leave
// the *convex* hull of the correct inputs.  Convex validity in R^d requires
// the Mendes-Herlihy / Vaidya-Garg safe-area machinery (STOC'13 / PODC'13),
// implemented on top of these primitives in geom/safe_area.hpp and exposed
// as ProtocolKind::kVectorConvex (core::VectorAaProcess's safe-area rule,
// core/multidim.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/multiset_ops.hpp"

namespace apxa::geom {

/// Product of per-coordinate intervals — the validity region of
/// coordinate-wise AA in the crash model.
struct Box {
  std::vector<double> lo;  ///< per-coordinate minima
  std::vector<double> hi;  ///< per-coordinate maxima

  [[nodiscard]] std::uint32_t dim() const {
    return static_cast<std::uint32_t>(lo.size());
  }

  /// True when every coordinate of `v` lies in [lo_c - slack, hi_c + slack]
  /// (a NaN coordinate lies nowhere).
  [[nodiscard]] bool contains(std::span<const double> v,
                              double slack = 1e-9) const;

  /// Length of the longest side — the L-infinity diameter of the box.
  [[nodiscard]] double max_side() const;
};

/// True when no coordinate of `v` is NaN or infinite.
[[nodiscard]] bool all_finite(std::span<const double> v);

/// Bounding box of a non-empty set of equal-dimension points.
Box box_hull(std::span<const std::vector<double>> points);

/// max_c |a_c - b_c|.  Vectors must have equal dimension.
double linf_dist(std::span<const double> a, std::span<const double> b);

/// sqrt(sum_c (a_c - b_c)^2).  Vectors must have equal dimension.
double l2_dist(std::span<const double> a, std::span<const double> b);

/// Worst pairwise L-infinity distance of a point set (0 for <= 1 point).
/// Equals the L-infinity diameter of the bounding box, so it is O(n * d).
double linf_spread(std::span<const std::vector<double>> points);

/// Worst pairwise L2 distance of a point set (0 for <= 1 point).  O(n^2 * d).
double l2_spread(std::span<const std::vector<double>> points);

/// Column `c` of the point set: the 1-D multiset the round rule reduces.
std::vector<double> coordinate(std::span<const std::vector<double>> points,
                               std::uint32_t c);

/// Apply a 1-D averaging rule to every coordinate column of a view: the
/// vector round rule of coordinate-wise AA.  `t` feeds the reduce/select
/// based (byzantine-laundering) rules exactly as in the 1-D protocols.
std::vector<double> average_per_coordinate(
    core::Averager averager, std::span<const std::vector<double>> view,
    std::uint32_t dim, std::uint32_t t);

}  // namespace apxa::geom
