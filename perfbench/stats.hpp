// Sample arithmetic and output checks shared by the harness and its
// self-test: percentiles, how many samples lie beyond a percentile, and the
// metric-name rules of the result line.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Percentile `q` in [0, 1] of `v`, interpolating linearly between the two
/// nearest ranks (numpy's default; Python's statistics "inclusive" method).
/// NaN for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Share of samples the bounded timing metrics drop from each end before
/// averaging. The host these runs are tuned on alternates between a fast and
/// a slow speed for seconds at a time; the median of such a two-mode sample
/// jumps between the modes as their mix shifts, while a trimmed mean moves
/// in proportion (over eight serve runs: delta RTT spread 0.089 as a median,
/// 0.060 as a trimmed mean; query RTT 0.12 against 0.08).
inline constexpr double kTrim = 0.1;

/// Mean of `v` without its lowest and highest `trim` share of samples.
inline double trimmed_mean(std::vector<double> v, double trim) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<std::size_t>(std::floor(trim * static_cast<double>(v.size())));
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Samples ranked strictly above the interpolation position of percentile
/// `q` in a sample of `n`.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto pos = static_cast<std::size_t>(std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - pos;
}

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it, or 0
/// when even p75 has fewer (then only the median is reported).
inline double highest_tail(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.90, 0.75}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// A JSON number with every digit of the double (round-trippable).
inline std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "median 1.23 ms, p95 1.90 ms, n=240, trimmed mean 1.31 ms": the median,
/// the highest percentile that has ten samples beyond it, the sample count,
/// and the trimmed mean the bounded metrics use.
inline std::string describe(const std::vector<double>& v, double scale,
                            const char* unit) {
  char buf[160];
  const double q = highest_tail(v.size());
  if (q > 0) {
    std::snprintf(buf, sizeof buf, "median %.4g %s, p%.0f %.4g %s, n=%zu, trimmed mean %.4g %s",
                  median(v) * scale, unit, q * 100, percentile(v, q) * scale,
                  unit, v.size(), trimmed_mean(v, kTrim) * scale, unit);
  } else {
    std::snprintf(buf, sizeof buf,
                  "median %.4g %s, n=%zu (too few for a tail), trimmed mean %.4g %s",
                  median(v) * scale, unit, v.size(), trimmed_mean(v, kTrim) * scale, unit);
  }
  return buf;
}

}  // namespace perfbench
