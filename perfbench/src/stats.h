#ifndef XVM_PERFBENCH_STATS_H_
#define XVM_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xvm::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile `q` in [0, 1] of raw samples, interpolating linearly between
/// the closest ranks (numpy's default). Every percentile the benchmark
/// reports comes from here, never from a bucketed histogram. 0 if empty.
template <typename T>
double Percentile(std::vector<T> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) * (1 - frac) +
         static_cast<double>(samples[hi]) * frac;
}

/// Percentile of samples quantized to whole units (here: nanoseconds).
/// Each value is taken as spread evenly over its unit-wide bin, the
/// percentile of grouped data, so ties do not pin the result to the same
/// integer run after run. 0 if empty.
inline double GroupedPercentile(std::vector<uint32_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double target = q * static_cast<double>(samples.size());
  const size_t at =
      std::min(static_cast<size_t>(target), samples.size() - 1);
  const uint32_t v = samples[at];
  const auto lo = static_cast<double>(
      std::lower_bound(samples.begin(), samples.end(), v) - samples.begin());
  const auto hi = static_cast<double>(
      std::upper_bound(samples.begin(), samples.end(), v) - samples.begin());
  return v - 0.5 + (target - lo) / (hi - lo);
}

template <typename T>
double Median(std::vector<T> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Ratio that reads 0 instead of NaN when the denominator is 0.
inline double SafeDiv(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace xvm::perfbench

#endif  // XVM_PERFBENCH_STATS_H_
