#include "geom/safe_area.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/ensure.hpp"

namespace apxa::geom {

namespace {

using Points = std::span<const std::vector<double>>;
using Indices = std::span<const std::uint32_t>;

// --- phase-1 simplex --------------------------------------------------------
//
// Feasibility of { A x = b, x >= 0 } for a dense r x c system: start from the
// all-artificial basis and minimize the sum of artificials (Bland's rule, so
// degenerate pivots — collinear points, duplicated values — cannot cycle).
// Reduced costs and the objective are recomputed from the artificial basic
// rows every iteration; the systems here are tiny (r <= d + 2t + 1, c <= n),
// so the extra O(r c) per pivot is irrelevant and avoids numerical drift.

constexpr double kPivotEps = 1e-11;
constexpr double kRelPivotEps = 1e-9;

/// Buffers of every LP one public call solves (see safe_area.hpp, "LP
/// workspace"): the outermost public function owns one and passes it down.
struct LpWorkspace {
  std::vector<double> a;      ///< rows x cols tableau, row-major
  std::vector<double> b;      ///< right-hand side as the pivots leave it
  std::vector<double> rhs;    ///< right-hand side as built (caller fills)
  std::vector<double> scale;  ///< row normalization (caller fills)
  std::vector<double> z;      ///< reduced costs
  std::vector<std::size_t> basis;
  std::vector<double> x;  ///< lambda of the last feasible solve
  /// Replay record of the last solve: columns that ever entered the basis
  /// and the iteration the solve ended at.
  std::vector<std::uint8_t> entered;
  std::size_t pivots = 0;
};

std::size_t lp_iteration_cap(std::size_t rows, std::size_t cols) {
  return 64 + 16 * (rows + cols) * (rows + cols);
}

/// Solves coef(i, j) x_j = ws.rhs[i] (i < rows, j < cols), x >= 0.  Feasible
/// when the residual optimum is <= tol AND the basic solution, left in ws.x,
/// satisfies every row of the system as built within tol: with a pivot just
/// above the threshold the tableau can degenerate until negative basic
/// values cancel positive ones in the objective.  The residual is recomputed
/// from `coef` rather than a copy of the tableau.
template <typename Coef>
bool lp_feasible(LpWorkspace& ws, std::size_t rows, std::size_t cols,
                 const Coef& coef, double tol) {
  ws.x.assign(cols, 0.0);
  ws.entered.assign(cols, 0);
  ws.pivots = 0;
  if (rows == 0) return true;

  ws.a.resize(rows * cols);
  ws.b.assign(ws.rhs.begin(), ws.rhs.begin() + static_cast<std::ptrdiff_t>(rows));
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = &ws.a[i * cols];
    for (std::size_t j = 0; j < cols; ++j) row[j] = coef(i, j);
    if (ws.b[i] < 0.0) {
      for (std::size_t j = 0; j < cols; ++j) row[j] = -row[j];
      ws.b[i] = -ws.b[i];
    }
  }
  // basis[i] == cols + i marks row i's artificial as basic.
  ws.basis.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) ws.basis[i] = cols + i;
  ws.z.resize(cols);

  double* const a = ws.a.data();
  double* const b = ws.b.data();
  double* const z = ws.z.data();
  std::size_t* const basis = ws.basis.data();
  const std::size_t max_iter = lp_iteration_cap(rows, cols);
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    ws.pivots = iter;
    double obj = 0.0;
    std::fill(z, z + cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      if (basis[i] < cols) continue;  // original column basic: cost 0
      obj += b[i];
      const double* row = a + i * cols;
      for (std::size_t j = 0; j < cols; ++j) z[j] -= row[j];
    }
    if (obj <= tol) {
      for (std::size_t i = 0; i < rows; ++i) {
        if (basis[i] < cols) ws.x[basis[i]] = std::max(0.0, b[i]);
      }
      for (std::size_t i = 0; i < rows; ++i) {
        double residual = -ws.rhs[i];
        for (std::size_t k = 0; k < rows; ++k) {
          if (basis[k] < cols) residual += coef(i, basis[k]) * ws.x[basis[k]];
        }
        if (!(std::abs(residual) <= tol)) return false;
      }
      return true;
    }
    // Bland: the lowest-index improving column with an admissible pivot
    // (artificials never re-enter).  The pivot threshold is relative to the
    // column: an entry ~1e-11 of its column's largest is cancellation noise,
    // and pivoting on it blows the tableau up.  A column without an
    // admissible pivot is passed over this iteration.  Both rules are
    // column-local, so the replay skip stays exact.
    std::size_t enter = cols, leave = rows;
    for (std::size_t j = 0; j < cols && leave == rows; ++j) {
      if (!(z[j] < -kPivotEps)) continue;
      double col_max = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        col_max = std::max(col_max, std::abs(a[i * cols + j]));
      }
      const double pivot_eps = std::max(kPivotEps, kRelPivotEps * col_max);
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        const double aij = a[i * cols + j];
        if (aij <= pivot_eps) continue;
        const double ratio = b[i] / aij;
        if (leave == rows || ratio < best_ratio - kPivotEps ||
            (ratio < best_ratio + kPivotEps && basis[i] < basis[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      enter = j;
    }
    if (leave == rows) return false;  // optimal with residual > tol
    double* const lrow = a + leave * cols;
    const double piv = lrow[enter];
    for (std::size_t j = 0; j < cols; ++j) lrow[j] /= piv;
    b[leave] /= piv;
    for (std::size_t i = 0; i < rows; ++i) {
      double* const row = a + i * cols;
      if (i == leave || row[enter] == 0.0) continue;
      const double f = row[enter];
      for (std::size_t j = 0; j < cols; ++j) row[j] -= f * lrow[j];
      b[i] -= f * b[leave];
    }
    basis[leave] = enter;
    ws.entered[enter] = 1;
  }
  ws.pivots = max_iter;
  return false;  // iteration cap: treat as infeasible (defensive)
}

// --- point-in-hull over an index subset -------------------------------------

/// Bounding-box prefilter of p against points[idx] (slack no tighter than
/// the LP's scaled tolerance), which rejects the common far-outside case
/// without touching the LP; on the way it leaves the hull system's row
/// scales, max_i |x_i[c] - p[c]|, in `scale`.  False when p is rejected.
bool hull_prefilter(std::span<const double> p, Points points, Indices idx,
                    double tol, std::vector<double>& scale) {
  const std::size_t d = p.size();
  scale.resize(d);
  for (std::size_t c = 0; c < d; ++c) {
    double lo = points[idx[0]][c], hi = lo, amax = std::abs(p[c]), s = 0.0;
    for (const std::uint32_t i : idx) {
      const double v = points[i][c];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      amax = std::max(amax, std::abs(v));
      s = std::max(s, std::abs(v - p[c]));
    }
    const double slack = tol * (1.0 + amax);
    if (p[c] < lo - slack || p[c] > hi + slack) return false;
    scale[c] = s;
  }
  return true;
}

/// The LP half of the hull test over points[idx], with hull_prefilter's row
/// scales in ws.scale.  Convex-combination system, translated to p and
/// row-normalized:
///   sum_j lambda_j (x_j - p) = 0   (d rows)
///   sum_j lambda_j             = 1
bool hull_lp(LpWorkspace& ws, std::span<const double> p, Points points,
             Indices idx, double tol) {
  const std::size_t d = p.size();
  ws.rhs.assign(d + 1, 0.0);
  ws.rhs[d] = 1.0;
  const double* const scale = ws.scale.data();
  const auto coef = [&](std::size_t i, std::size_t j) {
    if (i == d) return 1.0;
    const double v = points[idx[j]][i] - p[i];
    return scale[i] > tol ? v / scale[i] : v;
  };
  return lp_feasible(ws, d + 1, idx.size(), coef, tol);
}

bool in_hull(LpWorkspace& ws, std::span<const double> p, Points points,
             Indices idx, double tol) {
  return hull_prefilter(p, points, idx, tol, ws.scale) &&
         hull_lp(ws, p, points, idx, tol);
}

// --- helpers ----------------------------------------------------------------

void ensure_uniform(Points points) {
  APXA_ENSURE(!points.empty(), "safe-area operation on an empty point set");
  const std::size_t d = points.front().size();
  APXA_ENSURE(d >= 1, "points must have at least one coordinate");
  for (const auto& p : points) {
    APXA_ENSURE(p.size() == d, "safe-area operation over mixed dimensions");
  }
}

std::vector<double> centroid_of(Points points, Indices idx) {
  std::vector<double> c(points.front().size(), 0.0);
  for (const std::uint32_t i : idx) {
    for (std::size_t k = 0; k < c.size(); ++k) c[k] += points[i][k];
  }
  for (auto& x : c) x /= static_cast<double>(idx.size());
  return c;
}

std::vector<std::uint32_t> all_indices(std::size_t m) {
  std::vector<std::uint32_t> idx(m);
  std::iota(idx.begin(), idx.end(), 0u);
  return idx;
}

/// Visit every k-combination of {0..m-1} in lexicographic order; `fn` returns
/// false to continue, true to stop early.  Returns whether fn stopped.
template <typename Fn>
bool for_each_combination(std::uint32_t m, std::uint32_t k, Fn&& fn) {
  std::vector<std::uint32_t> idx(k);
  std::iota(idx.begin(), idx.end(), 0u);
  if (k == 0) return fn(idx);
  if (k > m) return false;
  while (true) {
    if (fn(idx)) return true;
    // advance
    std::uint32_t i = k;
    while (i > 0 && idx[i - 1] == m - k + (i - 1)) --i;
    if (i == 0) return false;
    ++idx[i - 1];
    for (std::uint32_t j = i; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// C(m, k), saturating at cap + 1 so callers compare against a budget.
std::uint64_t binomial_capped(std::uint64_t m, std::uint64_t k, std::uint64_t cap) {
  if (k > m) return 0;
  k = std::min(k, m - k);
  std::uint64_t r = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    if (r > cap) return cap + 1;
    r = r * (m - k + i) / i;
  }
  return std::min(r, cap + 1);
}

// --- partition orderings ----------------------------------------------------
//
// Deterministic index orderings the partition probes round-robin over: by
// distance from the centroid, by each of the first few coordinates, natural
// (and reversed), and a few hash-scrambled orders — interleaving each
// ordering spreads near/far points across the groups, which is a decent
// (cheap) heuristic for Tverberg partitions; more orderings buy more chances
// to hit one of the partitions Tverberg's theorem promises.  Built one at a
// time, so a probe that succeeds early sorts nothing else.

std::size_t ordering_count(std::size_t d) { return 6 + std::min<std::size_t>(d, 4); }

/// Ordering k < ordering_count(d) of the view, into `order`.
void partition_ordering(Points points, std::span<const double> center,
                        std::size_t k, std::vector<std::uint32_t>& order) {
  const std::size_t m = points.size();
  const std::size_t coords = std::min<std::size_t>(points.front().size(), 4);
  order.resize(m);
  std::iota(order.begin(), order.end(), 0u);
  if (k == 0) {
    std::vector<double> dist(m);
    for (std::size_t i = 0; i < m; ++i) dist[i] = l2_dist(points[i], center);
    std::stable_sort(order.begin(), order.end(),
                     [&dist](std::uint32_t a, std::uint32_t b) {
                       return dist[a] < dist[b];
                     });
  } else if (k <= coords) {
    const std::size_t coord = k - 1;
    std::stable_sort(order.begin(), order.end(),
                     [&points, coord](std::uint32_t a, std::uint32_t b) {
                       return points[a][coord] < points[b][coord];
                     });
  } else if (k == coords + 2) {
    std::reverse(order.begin(), order.end());
  } else if (k > coords + 2) {
    const std::uint64_t seed = k - coords - 2;
    std::stable_sort(order.begin(), order.end(),
                     [seed](std::uint32_t a, std::uint32_t b) {
                       auto mix = [seed](std::uint64_t i) {
                         std::uint64_t z = (i + seed * 0x9e3779b97f4a7c15ULL);
                         z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
                         return z ^ (z >> 27);
                       };
                       return mix(a) < mix(b);
                     });
  }
  // k == coords + 1: natural order.
}

// --- the operations, over a caller-owned workspace --------------------------

/// removal_robustness with the exact replay skip (safe_area.hpp).
int robustness(LpWorkspace& ws, std::span<const double> p, Points points,
               std::uint32_t t, const SafeAreaOptions& opts) {
  const auto m = static_cast<std::uint32_t>(points.size());
  const std::size_t d = p.size();
  std::vector<std::uint32_t> keep = all_indices(m);
  if (!in_hull(ws, p, points, keep, opts.tol)) return -1;
  const std::vector<std::uint8_t> full_entered = ws.entered;
  const std::vector<double> full_scale = ws.scale;
  const std::size_t full_pivots = ws.pivots;
  // A removal set replays the full solve bit for bit when none of its
  // columns ever entered, every row keeps its scale and the full run fits
  // under the subset's iteration cap; the prefilter still runs first.
  const auto replays_full_solve = [&](const std::vector<std::uint32_t>& removed) {
    if (full_pivots >= lp_iteration_cap(d + 1, keep.size())) return false;
    for (const std::uint32_t r : removed) {
      if (full_entered[r]) return false;
    }
    for (std::size_t c = 0; c < d; ++c) {
      const double s = ws.scale[c], f = full_scale[c];
      if (!(s == f || (s <= opts.tol && f <= opts.tol))) return false;
    }
    return true;
  };

  for (std::uint32_t k = 1; k <= t; ++k) {
    if (binomial_capped(m, k, opts.max_enumerated) > opts.max_enumerated) {
      return static_cast<int>(k) - 1;  // enumeration budget: verified so far
    }
    const bool violated = for_each_combination(
        m, k, [&](const std::vector<std::uint32_t>& removed) {
          keep.clear();
          std::uint32_t r = 0;
          for (std::uint32_t i = 0; i < m; ++i) {
            if (r < removed.size() && removed[r] == i) {
              ++r;
              continue;
            }
            keep.push_back(i);
          }
          if (!hull_prefilter(p, points, keep, opts.tol, ws.scale)) return true;
          if (replays_full_solve(removed)) return false;
          return !hull_lp(ws, p, points, keep, opts.tol);
        });
    if (violated) return static_cast<int>(k) - 1;
  }
  return static_cast<int>(t);
}

std::optional<std::vector<double>> tverberg(LpWorkspace& ws, Points points,
                                            std::uint32_t r,
                                            std::span<const double> center,
                                            const SafeAreaOptions& opts) {
  const auto m = static_cast<std::uint32_t>(points.size());
  const std::size_t d = points.front().size();
  if (m < r) return std::nullopt;  // some group would be empty

  // Joint convex-combination system over all lambdas, on the centered
  // y_i = x_i - center (conditioning):
  //   per group g:            sum_{i in g} lambda_i = 1
  //   per group g >= 1, c:    sum_{i in g0} lambda_i y_i[c]
  //                         - sum_{i in g}  lambda_i y_i[c] = 0
  // Row r + (g - 1) d + c is normalized by its largest entry.
  const std::size_t rows = r + (r - 1) * d;
  ws.rhs.assign(rows, 0.0);
  std::fill(ws.rhs.begin(), ws.rhs.begin() + r, 1.0);
  ws.scale.assign(rows, 0.0);
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> group(m);
  const double* const scale = ws.scale.data();
  const auto coef = [&](std::size_t i, std::size_t j) {
    if (i < r) return group[j] == i ? 1.0 : 0.0;
    const std::size_t g = 1 + (i - r) / d, c = (i - r) % d;
    double v = 0.0;
    if (group[j] == 0) {
      v = points[j][c] - center[c];
    } else if (group[j] == g) {
      v = -(points[j][c] - center[c]);
    }
    return scale[i] > opts.tol ? v / scale[i] : v;
  };

  for (std::size_t k = 0; k < ordering_count(d); ++k) {
    partition_ordering(points, center, k, order);
    for (std::uint32_t pos = 0; pos < m; ++pos) group[order[pos]] = pos % r;
    for (std::size_t i = r; i < rows; ++i) {
      const std::size_t g = 1 + (i - r) / d, c = (i - r) % d;
      double s = 0.0;
      for (std::uint32_t j = 0; j < m; ++j) {
        if (group[j] == 0 || group[j] == g) {
          s = std::max(s, std::abs(points[j][c] - center[c]));
        }
      }
      ws.scale[i] = s;
    }
    if (!lp_feasible(ws, rows, m, coef, opts.tol)) continue;
    // The common point, read off group 0 (order[0], order[r], ...).
    std::vector<double> x(d, 0.0);
    for (std::uint32_t pos = 0; pos < m; pos += r) {
      const std::uint32_t i = order[pos];
      for (std::size_t c = 0; c < d; ++c) x[c] += ws.x[i] * points[i][c];
    }
    return x;
  }
  return std::nullopt;
}

}  // namespace

bool in_convex_hull(std::span<const double> p,
                    std::span<const std::vector<double>> points, double tol) {
  ensure_uniform(points);
  APXA_ENSURE(p.size() == points.front().size(), "query point dimension mismatch");
  LpWorkspace ws;
  return in_hull(ws, p, points, all_indices(points.size()), tol);
}

int removal_robustness(std::span<const double> p,
                       std::span<const std::vector<double>> points,
                       std::uint32_t t, const SafeAreaOptions& opts) {
  ensure_uniform(points);
  APXA_ENSURE(p.size() == points.front().size(), "query point dimension mismatch");
  APXA_ENSURE(t < points.size(), "removal budget must leave a nonempty subset");
  LpWorkspace ws;
  return robustness(ws, p, points, t, opts);
}

bool in_safe_area(std::span<const double> p,
                  std::span<const std::vector<double>> points, std::uint32_t t,
                  const SafeAreaOptions& opts) {
  ensure_uniform(points);
  APXA_ENSURE(p.size() == points.front().size(), "query point dimension mismatch");
  const auto m = static_cast<std::uint32_t>(points.size());
  APXA_ENSURE(t < m, "fault budget must leave a nonempty subset");
  LpWorkspace ws;
  if (t == 0) return in_hull(ws, p, points, all_indices(m), opts.tol);
  if (binomial_capped(m, t, opts.max_enumerated) <= opts.max_enumerated) {
    return robustness(ws, p, points, t, opts) == static_cast<int>(t);
  }
  // Vaidya-Garg fallback for larger n: a (t+1)-partition witness — p in the
  // hull of t+1 disjoint groups is in every (m-t)-subset hull, because any t
  // removals spare at least one group.  Sufficient, not necessary.
  const std::vector<double> center = centroid(points);
  std::vector<std::uint32_t> order, group;
  for (std::size_t k = 0; k < ordering_count(p.size()); ++k) {
    partition_ordering(points, center, k, order);
    bool all = true;
    for (std::uint32_t g = 0; g <= t && all; ++g) {
      group.clear();
      for (std::uint32_t pos = g; pos < m; pos += t + 1) group.push_back(order[pos]);
      all = in_hull(ws, p, points, group, opts.tol);
    }
    if (all) return true;
  }
  return false;
}

std::optional<std::vector<double>> tverberg_point(
    std::span<const std::vector<double>> points, std::uint32_t r,
    const SafeAreaOptions& opts) {
  ensure_uniform(points);
  APXA_ENSURE(r >= 1, "partition count must be positive");
  if (r == 1) return centroid(points);
  LpWorkspace ws;
  return tverberg(ws, points, r, centroid(points), opts);
}

bool same_point(std::span<const double> a, std::span<const double> b,
                double rel_tol) {
  double na = 0.0, nb = 0.0;
  for (const double x : a) na = std::max(na, std::abs(x));
  for (const double x : b) nb = std::max(nb, std::abs(x));
  return linf_dist(a, b) <= rel_tol * (1.0 + std::max(na, nb));
}

std::vector<std::uint32_t> support_counts(
    std::span<const std::vector<double>> points, double rel_tol) {
  ensure_uniform(points);
  const std::size_t m = points.size();
  std::vector<std::uint32_t> support(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (same_point(points[i], points[j], rel_tol)) ++support[i];
    }
  }
  return support;
}

std::vector<double> centroid(std::span<const std::vector<double>> points) {
  ensure_uniform(points);
  return centroid_of(points, all_indices(points.size()));
}

std::vector<double> coordinate_median(std::span<const std::vector<double>> points) {
  ensure_uniform(points);
  const std::size_t d = points.front().size();
  const std::size_t m = points.size();
  std::vector<double> med(d);
  std::vector<double> col(m);
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t i = 0; i < m; ++i) col[i] = points[i][c];
    std::sort(col.begin(), col.end());
    med[c] = m % 2 == 1 ? col[m / 2] : 0.5 * (col[m / 2 - 1] + col[m / 2]);
  }
  return med;
}

SafePoint safe_midpoint(std::span<const std::vector<double>> points,
                        std::uint32_t t, const SafeAreaOptions& opts,
                        TrustedMask trusted) {
  ensure_uniform(points);
  const auto m = static_cast<std::uint32_t>(points.size());
  const std::size_t d = points.front().size();
  APXA_ENSURE(m > 2 * t, "safe midpoint requires m > 2t");
  APXA_ENSURE(trusted.empty() || trusted.size() == m,
              "trusted mask must cover every point");

  if (t == 0) return {centroid(points), true};  // safe area == conv(points)

  if (d == 1) {
    // Closed form: the 1-D safe area is [v_(t), v_(m-1-t)] — the hull of
    // reduce_t — and the rule is its midpoint (the byzantine halving rule).
    std::vector<double> col = coordinate(points, 0);
    std::sort(col.begin(), col.end());
    return {{0.5 * (col[t] + col[m - 1 - t])}, true};
  }

  // Certified honest echoes: a point supported by >= t + 1 view entries has
  // an honest contributor, so it IS an honest round value and adopting it
  // preserves convex validity (support_counts).  One representative per
  // near-duplicate cluster; averaging representatives of distinct clusters
  // contracts views that straddle two honest camps.  The certified-honest
  // core adds the caller-trusted entries to the supported ones.
  std::vector<std::vector<double>> safe;
  std::vector<std::uint32_t> core;
  const auto support = support_counts(points);
  for (std::uint32_t i = 0; i < m; ++i) {
    const bool supported = support[i] >= t + 1;
    if (supported || (!trusted.empty() && trusted[i])) core.push_back(i);
    if (!supported) continue;
    bool first_of_cluster = true;
    for (std::uint32_t j = 0; j < i && first_of_cluster; ++j) {
      if (support[j] >= t + 1 && same_point(points[i], points[j])) {
        first_of_cluster = false;
      }
    }
    if (first_of_cluster) safe.push_back(points[i]);
  }

  // Deterministic candidates — the Tverberg point over t+1 groups, the
  // coordinate median and the centroid — each admitted only when its
  // measured robustness is t.  The Tverberg LP's partition certificate is
  // not enough on its own: on a view holding a near-duplicate pair its
  // answer passes the residual check yet survives no removal.  The safe area
  // is convex, so the average of admitted points stays at level t.  SKIPPED
  // for degenerate views (m <= d + 1): affinely independent points have a
  // provably EMPTY safe area for t >= 1 (removing any vertex strictly
  // shrinks the simplex), so any LP "certificate" there is tolerance noise.
  // Genuine robustness through duplicated values is exactly the
  // (t+1)-support certification above.
  if (m > d + 1) {
    LpWorkspace ws;
    const std::vector<double> mean = centroid(points);
    const std::optional<std::vector<double>> tv =
        tverberg(ws, points, t + 1, mean, opts);
    const std::vector<double> med = coordinate_median(points);
    const int level_t = static_cast<int>(t);
    for (const std::vector<double>* cand : {tv ? &*tv : nullptr, &med, &mean}) {
      if (cand && robustness(ws, *cand, points, t, opts) == level_t) {
        safe.push_back(*cand);
      }
    }
  }

  if (!safe.empty()) return {centroid(safe), true};
  // Nothing certified (the safe area is generically empty below
  // m = (d+1)t + 1, and the probes may miss it above): the centroid of the
  // certified-honest core, or of the whole view when the caller certified
  // nothing.
  if (core.empty()) return {centroid(points), false};
  return {centroid_of(points, core), false};
}

}  // namespace apxa::geom
