// Safe-area machinery for convex-validity vector approximate agreement.
//
// Coordinate-wise byzantine laundering (geom.hpp, core::VectorAaProcess with
// the DLPSW rule) guarantees BOX validity only: outputs stay in the bounding
// box of the honest inputs but can leave their *convex* hull.  Closing that
// gap is the Mendes-Herlihy (STOC'13) / Vaidya-Garg (PODC'13) safe-area
// construction, which this module implements over the existing geom
// primitives:
//
//   in_convex_hull      — exact point-in-hull test by linear-programming
//                         feasibility (phase-1 simplex over the convex-
//                         combination system; an infeasibility certificate is
//                         a separating halfspace, by LP duality / Farkas);
//   removal_robustness  — the largest k <= t such that a point survives in
//                         the hull of EVERY (m-k)-subset of an m-point view;
//   in_safe_area        — membership in the Vaidya-Garg safe area: the
//                         intersection of the convex hulls of all
//                         (m-t)-subsets.  Any point of the safe area lies in
//                         the hull of the honest points of the view no matter
//                         which <= t entries are byzantine, which is exactly
//                         the inductive step of convex validity.  Checked by
//                         subset enumeration when C(m,t) is small, and by the
//                         (t+1)-partition witness otherwise: a point in the
//                         hulls of t+1 DISJOINT groups is in every
//                         (m-t)-subset hull, because removing t points spares
//                         at least one group (this is the Vaidya-Garg
//                         fallback for larger n — t+1 hull tests instead of
//                         C(m,t));
//   tverberg_point      — a Tverberg partition point: partition the view
//                         into r groups whose hulls share a common point and
//                         return such a point (LP over the joint
//                         convex-combination system).  With r = t+1 a
//                         Tverberg point is in the safe area by the partition
//                         argument above; Tverberg's theorem guarantees a
//                         good partition exists once m >= (d+1)t + 1, but
//                         FINDING it is expensive in general, so this probes
//                         a small deterministic family of partitions and may
//                         return nullopt even when a Tverberg point exists;
//   safe_midpoint       — the averaging rule of the convex-valid protocol
//                         (core::ConvexVectorProcess): average the certified
//                         points — (t+1)-supported honest echoes of the view
//                         (support_counts) and the verified safe-area points
//                         among a deterministic candidate set (Tverberg
//                         point, Radon point, coordinate median, trimmed
//                         centroid, centroid) — the safe area is convex, so
//                         the average keeps the verified robustness.  When
//                         the safe area is empty or out of reach (m <
//                         (d+2)t + 1 — unavoidable for large d relative to
//                         n; see the dimensionality note below), fall back to
//                         trimmed_centroid: a convex combination of the view
//                         minus its geometric outliers, always keeping the
//                         certified-honest core (supported echoes plus the
//                         caller's TrustedMask).
//
// Dimensionality note: the safe area of m generic points is nonempty only
// when m >= (d+2)t + 1 (Mendes-Herlihy; below n > (d+2)t convex-valid
// byzantine AA is impossible outright); for views smaller than that — e.g.
// d = 8 with n <= 16, t = 2 — NO rule can certify level-t robustness, and
// safe_midpoint degrades to the trimmed-centroid fallback with the verified
// robustness level it did reach; degenerate views (m <= d + 1) degrade
// further, to the certified-honest average.  harness::VectorRunReport
// records the resulting convex-hull-validity verdict for every run, so the
// degradation is measured, not hidden (bench/f6_multidim, box_vs_convex
// section).
//
// LP workspace: every LP is a phase-1 simplex (Bland's rule) on one
// row-major tableau held in a workspace that the outermost public call owns
// and passes down to every solve it makes — no thread_local or static
// state, and a solve allocates nothing once the buffers have grown to the
// call's largest system.  Subset hull tests take an index list into the
// view instead of copying points.
//
// Exact replay skip: removal_robustness first solves the full-set LP and
// records which columns ever entered its basis, its iteration count and
// its row scales.  A removal set R reuses the full answer without solving
// when no column of R ever entered, every row's scale over the kept points
// equals the full scale bitwise (or both are <= tol, so neither row is
// scaled), the kept subset passes its own bounding-box prefilter, and the
// full run's iteration count is below the subset's cap.  The subset solve
// would then do exactly the same floating-point work on every remaining
// column: the kept columns carry identical entries, Bland's rule picks by
// relative column order (the removed columns were never picked), and the
// reduced costs, the ratio test and the pivot updates are column-local —
// so it would reach the same basis, the same lambda and the same verdict.
//
// Residual contract: an LP answer counts as feasible only when its basic
// solution satisfies every row of the system as built (after row
// normalization) within SafeAreaOptions::tol.  The pivot threshold is
// absolute, so a pivot just above it can degenerate the tableau until
// negative basic values cancel positive ones in the phase-1 objective; the
// check, recomputed from the inputs, rejects such answers (a point
// tverberg_point returns is then truly in the hulls of its groups).  It
// keeps the replay skip exact: a column that never entered has lambda 0.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/geom.hpp"

namespace apxa::geom {

struct SafeAreaOptions {
  /// Feasibility slack of the LP membership test (absolute, after row
  /// normalization).  Points within tol of the hull count as inside; every
  /// row of an accepted LP answer holds within tol.
  double tol = 1e-7;
  /// Enumerate all C(m,k) subset hulls only while the count stays below
  /// this; beyond it in_safe_area falls back to the (t+1)-partition witness
  /// (sound but incomplete).
  std::uint64_t max_enumerated = 4096;
};

/// Exact point-in-convex-hull test: feasibility of
///   sum_i lambda_i x_i = p,  sum_i lambda_i = 1,  lambda >= 0
/// by phase-1 simplex (Bland's rule, so it terminates on degenerate /
/// collinear inputs).  O(poly(m, d)) per call with a bounding-box prefilter.
bool in_convex_hull(std::span<const double> p,
                    std::span<const std::vector<double>> points,
                    double tol = 1e-7);

/// Largest k in [0, t] such that p lies in the hull of every subset obtained
/// by removing any k points from `points`; -1 when p is not even in the hull
/// of the full set.  Monotone: level k implies level k-1.
int removal_robustness(std::span<const double> p,
                       std::span<const std::vector<double>> points,
                       std::uint32_t t, const SafeAreaOptions& opts = {});

/// Membership in the safe area: p in conv(S) for every (m-t)-subset S.
/// Enumerates subsets while C(m,t) <= opts.max_enumerated, otherwise probes
/// (t+1)-partition witnesses (sufficient, not necessary).
bool in_safe_area(std::span<const double> p,
                  std::span<const std::vector<double>> points, std::uint32_t t,
                  const SafeAreaOptions& opts = {});

/// A common point of the hulls of r disjoint groups partitioning `points`
/// (a Tverberg partition point), searched over a small deterministic family
/// of partitions; nullopt when none of the probed partitions admits one.
/// r = 1 returns the centroid.
std::optional<std::vector<double>> tverberg_point(
    std::span<const std::vector<double>> points, std::uint32_t r,
    const SafeAreaOptions& opts = {});

/// Radon point of the d+2 points closest to the centroid (nullopt when
/// m < d + 2): a point in the hulls of BOTH parts of the Radon partition of
/// those d+2 points, computed exactly from their affine dependence.  The
/// parts are disjoint, so removing any single point of the full view spares
/// one part — a Radon point certifies removal robustness 1 (the r = 2
/// Tverberg case, by construction rather than probing).
std::optional<std::vector<double>> radon_point(
    std::span<const std::vector<double>> points);

/// Arithmetic mean of the points (always in their hull).
std::vector<double> centroid(std::span<const std::vector<double>> points);

/// For each point, how many entries of the set lie within a relative
/// L-infinity tolerance of it (itself included — support is always >= 1).
/// In a one-entry-per-sender view with at most t byzantine entries, support
/// >= t + 1 certifies an honest contributor: the value IS an honest round
/// value (byzantine echoes cap at t copies), so adopting it preserves convex
/// validity.  Conversely a cluster of size 2..t is the signature of
/// coordinated attackers — continuous honest inputs collide with probability
/// zero before convergence, and AT convergence honest clusters exceed t.
std::vector<std::uint32_t> support_counts(
    std::span<const std::vector<double>> points, double rel_tol = 1e-9);

/// The near-duplicate criterion of support_counts: L-infinity distance within
/// rel_tol of the larger point's scale.
bool same_point(std::span<const double> a, std::span<const double> b,
                double rel_tol = 1e-9);

/// Optional per-point caller knowledge for trimmed_centroid/safe_midpoint:
/// nonzero marks a value the caller KNOWS carries honest content — its own
/// view entry, or an echo of it (a byzantine copy of an honest value is
/// still an honest value, so keeping it cannot move an average outside the
/// honest hull).  Trusted points are never trimmed.
using TrustedMask = std::span<const std::uint8_t>;

/// Coordinate-wise median (NOT in the hull in general for d >= 2).
std::vector<double> coordinate_median(std::span<const std::vector<double>> points);

/// Centroid of the view minus its outliers: drop up to 2t points — the t
/// farthest (L2) from the coordinate median, then the t scoring highest on
/// simultaneous per-coordinate extremity — and return the centroid of the
/// rest (requires m > 2t).  Certified-honest points never drop: those with
/// support >= t + 1 (support_counts) and those in `trusted` (empty or size
/// m); certificates have no false positives, and keeping an honest value
/// only keeps the centroid inside the honest hull.  Views with no slack
/// beyond the certificates (e.g. m = 2t + 1 with a one-point core) and
/// degenerate views (m <= d + 1: a simplex with no interior, where
/// geometry cannot separate a forged vertex from an honest one) degrade
/// to the certified-honest average — valid, if contraction-free — when a
/// certificate exists (core::ConvexVectorProcess always trusts its own
/// entry, so through the protocol the core is never empty; with no
/// certificate at all the geometric drop below is the only signal left and
/// a degenerate view CAN retain a forged vertex).  Far-
/// outside and corner-steering attackers top the two geometric scores, so
/// the <= t attacker points survive only when 2t honest points look MORE
/// suspicious.  A convex combination of the kept points; the deterministic
/// fallback of safe_midpoint.
std::vector<double> trimmed_centroid(std::span<const std::vector<double>> points,
                                     std::uint32_t t, TrustedMask trusted = {});

/// Result of the safe-area averaging rule.
struct SafePoint {
  std::vector<double> point;
  /// Verified robustness of `point` (t = certified).
  std::uint32_t level = 0;
  /// True when level == t: the point is certified convex-safe — an average
  /// of safe-area points and/or (t+1)-supported honest echoes of the view.
  bool exact = false;
};

/// The safe-area midpoint averaging rule over an m-point view with fault
/// bound t (requires m > 2t).  d = 1 is closed form — the safe area is the
/// interval [v_(t), v_(m-1-t)], i.e. the hull of reduce_t(V), and the rule
/// returns its midpoint.  t = 0 returns the centroid (the safe area is
/// conv(V) itself).  Otherwise: average of the certified points — the
/// (t+1)-supported honest echoes of the view (support_counts) plus the
/// safe-area points among the deterministic candidates — falling back to
/// trimmed_centroid with its measured robustness when nothing certifies.
SafePoint safe_midpoint(std::span<const std::vector<double>> points,
                        std::uint32_t t, const SafeAreaOptions& opts = {},
                        TrustedMask trusted = {});

}  // namespace apxa::geom
