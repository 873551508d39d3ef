#include "geom/geom.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/ensure.hpp"

namespace apxa::geom {

bool Box::contains(std::span<const double> v, double slack) const {
  APXA_ENSURE(v.size() == lo.size(), "box/point dimension mismatch");
  for (std::size_t c = 0; c < v.size(); ++c) {
    // Negated so that a NaN coordinate, which compares false, is outside.
    if (!(v[c] >= lo[c] - slack && v[c] <= hi[c] + slack)) return false;
  }
  return true;
}

bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

double Box::max_side() const {
  double side = 0.0;
  for (std::size_t c = 0; c < lo.size(); ++c) {
    side = std::max(side, hi[c] - lo[c]);
  }
  return side;
}

Box box_hull(std::span<const std::vector<double>> points) {
  APXA_ENSURE(!points.empty(), "box hull of an empty set");
  const std::size_t dim = points.front().size();
  Box box;
  box.lo.assign(dim, std::numeric_limits<double>::infinity());
  box.hi.assign(dim, -std::numeric_limits<double>::infinity());
  for (const auto& p : points) {
    APXA_ENSURE(p.size() == dim, "box hull over mixed dimensions");
    for (std::size_t c = 0; c < dim; ++c) {
      box.lo[c] = std::min(box.lo[c], p[c]);
      box.hi[c] = std::max(box.hi[c], p[c]);
    }
  }
  return box;
}

double linf_dist(std::span<const double> a, std::span<const double> b) {
  APXA_ENSURE(a.size() == b.size(), "linf over mixed dimensions");
  double d = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    d = std::max(d, std::abs(a[c] - b[c]));
  }
  return d;
}

double l2_dist(std::span<const double> a, std::span<const double> b) {
  APXA_ENSURE(a.size() == b.size(), "l2 over mixed dimensions");
  double sq = 0.0;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const double d = a[c] - b[c];
    sq += d * d;
  }
  return std::sqrt(sq);
}

double linf_spread(std::span<const std::vector<double>> points) {
  if (points.size() < 2) return 0.0;
  return box_hull(points).max_side();
}

double l2_spread(std::span<const std::vector<double>> points) {
  double worst = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      worst = std::max(worst, l2_dist(points[i], points[j]));
    }
  }
  return worst;
}

std::vector<double> coordinate(std::span<const std::vector<double>> points,
                               std::uint32_t c) {
  std::vector<double> column;
  column.reserve(points.size());
  for (const auto& p : points) {
    APXA_ENSURE(c < p.size(), "coordinate index out of range");
    column.push_back(p[c]);
  }
  return column;
}

std::vector<double> average_per_coordinate(
    core::Averager averager, std::span<const std::vector<double>> view,
    std::uint32_t dim, std::uint32_t t) {
  std::vector<double> next(dim);
  for (std::uint32_t c = 0; c < dim; ++c) {
    next[c] = core::apply_averager(averager, coordinate(view, c), t);
  }
  return next;
}

}  // namespace apxa::geom
