#include "core/multiset_ops.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace apxa::core {

bool is_sorted_values(std::span<const double> v) {
  return std::is_sorted(v.begin(), v.end());
}

namespace {

/// reduce() as a view into `sorted`.
std::span<const double> reduced(std::span<const double> sorted, std::uint32_t k) {
  APXA_ENSURE(sorted.size() > 2 * static_cast<std::size_t>(k),
              "reduce: need more than 2k elements");
  return sorted.subspan(k, sorted.size() - 2 * static_cast<std::size_t>(k));
}

/// mean(select(sorted, k)) without materializing the selection.
double mean_every(std::span<const double> v, std::size_t k) {
  APXA_ENSURE(k >= 1, "select: k must be >= 1");
  APXA_ENSURE(!v.empty(), "mean: empty multiset");
  // Incremental mean: m_k = m_{k-1} + (x_k - m_{k-1}) / k.  Unlike the naive
  // sum, this cannot overflow for values near DBL_MAX (the running mean stays
  // inside the hull of the inputs at every step).
  double m = 0.0;
  double count = 0.0;
  for (std::size_t i = 0; i < v.size(); i += k) {
    count += 1.0;
    m += (v[i] - m) / count;
  }
  return m;
}

}  // namespace

std::vector<double> reduce(std::span<const double> sorted, std::uint32_t k) {
  const auto r = reduced(sorted, k);
  return {r.begin(), r.end()};
}

std::vector<double> select(std::span<const double> sorted, std::uint32_t k) {
  APXA_ENSURE(k >= 1, "select: k must be >= 1");
  APXA_ENSURE(!sorted.empty(), "select: empty multiset");
  std::vector<double> out;
  for (std::size_t i = 0; i < sorted.size(); i += k) out.push_back(sorted[i]);
  return out;
}

double mean(std::span<const double> v) { return mean_every(v, 1); }

double midpoint(std::span<const double> sorted) {
  APXA_ENSURE(!sorted.empty(), "midpoint: empty multiset");
  return (sorted.front() + sorted.back()) / 2.0;
}

double median(std::span<const double> sorted) {
  APXA_ENSURE(!sorted.empty(), "median: empty multiset");
  const std::size_t m = sorted.size();
  if (m % 2 == 1) return sorted[m / 2];
  return (sorted[m / 2 - 1] + sorted[m / 2]) / 2.0;
}

double spread(std::span<const double> sorted) {
  if (sorted.size() < 2) return 0.0;
  return sorted.back() - sorted.front();
}

double apply_averager(Averager a, std::span<double> values, std::uint32_t t) {
  std::sort(values.begin(), values.end());
  const std::span<const double> sorted = values;
  switch (a) {
    case Averager::kMean:
      return mean(sorted);
    case Averager::kMidpoint:
      return midpoint(sorted);
    case Averager::kMedian:
      return median(sorted);
    case Averager::kReduceMidpoint:
      return midpoint(reduced(sorted, t));
    case Averager::kDlpswSync:
      return mean_every(reduced(sorted, t), std::max<std::uint32_t>(1, t));
    case Averager::kDlpswAsync:
      // reduce_t launders the <= t byzantine values a view can contain;
      // select_2t re-aligns views that differ in up to 2t entries (t omitted
      // genuine values per side, plus byzantine inconsistencies).
      return mean_every(reduced(sorted, t), std::max<std::uint32_t>(1, 2 * t));
  }
  APXA_ASSERT(false, "unknown averager");
}

double apply_averager(Averager a, std::vector<double> values, std::uint32_t t) {
  return apply_averager(a, std::span<double>(values), t);
}

bool averager_is_byzantine_safe(Averager a) {
  switch (a) {
    case Averager::kMean:
    case Averager::kMidpoint:
    case Averager::kMedian:
      return false;
    case Averager::kReduceMidpoint:
    case Averager::kDlpswSync:
    case Averager::kDlpswAsync:
      return true;
  }
  return false;
}

std::string_view averager_name(Averager a) {
  switch (a) {
    case Averager::kMean:
      return "mean";
    case Averager::kMidpoint:
      return "midpoint";
    case Averager::kMedian:
      return "median";
    case Averager::kReduceMidpoint:
      return "reduce-midpoint";
    case Averager::kDlpswSync:
      return "dlpsw-sync";
    case Averager::kDlpswAsync:
      return "dlpsw-async";
  }
  return "?";
}

Interval hull_of(std::span<const double> values) {
  APXA_ENSURE(!values.empty(), "hull of empty set");
  auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  return Interval{*mn, *mx};
}

}  // namespace apxa::core
