// Order statistics for the benchmark: the one percentile helper every
// latency figure goes through, and the quartile summary of per-rep values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace repobench {

/// A latency percentile over completed samples plus failures. Failures
/// (drops, late or lost subframes) have no latency of their own: they rank
/// above every completed sample, so a percentile that lands on one reports
/// `failure` instead of a number.
struct Percentile {
  bool valid = false;     ///< false: fewer than 11 samples in total.
  bool failure = false;   ///< the ranked sample is a failure.
  double value = 0.0;     ///< the ranked completed sample (if !failure).
  double rank = 0.0;      ///< percentile actually reported, in (0, 1].
  std::size_t n = 0;      ///< samples, completed plus failed.
  std::size_t beyond = 0; ///< samples ranked strictly above the reported one.
};

/// Samples that must rank above a reported percentile: a tail figure
/// resting on fewer is a single outlier, not a distribution.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile `p` of `completed` with `failures` ranked above
/// every completion. When fewer than kMinBeyond samples would lie beyond
/// rank p, reports the highest percentile that keeps kMinBeyond beyond it
/// (rank = (n - kMinBeyond) / n) and says so through `rank`.
inline Percentile percentile(std::vector<double> completed,
                             std::size_t failures, double p) {
  Percentile out;
  out.n = completed.size() + failures;
  if (out.n <= kMinBeyond || p <= 0.0) return out;
  const double highest = static_cast<double>(out.n - kMinBeyond) /
                         static_cast<double>(out.n);
  out.rank = std::min(p, highest);
  // Nearest rank: the smallest sample with at least rank * n samples at or
  // below it (1-based ceil(rank * n)). The epsilon keeps an exact product
  // such as 0.99 * 1000 from rounding up past itself.
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(out.rank * static_cast<double>(out.n) - 1e-9)));
  out.beyond = out.n - k;
  out.valid = true;
  if (k > completed.size()) {
    out.failure = true;
    return out;
  }
  std::nth_element(completed.begin(), completed.begin() + (k - 1),
                   completed.end());
  out.value = completed[k - 1];
  return out;
}

/// Median and quartiles of a set of per-rep values, with the same
/// (exclusive) method as Python's statistics.quantiles(n=4).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double pos) {  // 1-based fractional position
    const double clamped =
        std::clamp(pos, 1.0, static_cast<double>(v.size()));
    const std::size_t lo = static_cast<std::size_t>(clamped) - 1;
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = clamped - std::floor(clamped);
    return v[lo] + (v[hi] - v[lo]) * frac;
  };
  const double m = static_cast<double>(v.size()) + 1.0;
  s.q1 = at(m * 0.25);
  s.median = at(m * 0.5);
  s.q3 = at(m * 0.75);
  return s;
}

}  // namespace repobench
