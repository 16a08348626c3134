#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file stats.hpp
/// Summary statistics of the benchmark's samples. Header-only and free of
/// library dependencies so test_stats.cpp can pin them down alone.

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
  /// Inter-quartile distance as a share of the median (0 when the median is).
  double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (its default "exclusive" method), so the spread printed here is the
/// one an external check computes from the same values.
inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const std::int64_t m = ld + 1;
  double out[3] = {0.0, 0.0, 0.0};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

/// Nearest-rank tail: the highest percentile that still has at least
/// `min_beyond` samples above it.
struct Tail {
  bool valid = false;     ///< false when the sample has <= min_beyond values
  double value = 0.0;     ///< the sample at that rank
  double percentile = 0;  ///< 100 * rank / n
  std::size_t beyond = 0; ///< samples strictly above the rank
  std::size_t count = 0;  ///< sample size
};

inline Tail nearest_rank_tail(std::vector<double> v, std::size_t min_beyond = 10) {
  Tail t;
  t.count = v.size();
  if (v.size() <= min_beyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - min_beyond;  // 1-based
  t.valid = true;
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  t.beyond = min_beyond;
  return t;
}

/// Failed over attempted operations. Nothing attempted proves nothing, so
/// it counts as total failure.
inline double fail_frac(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
