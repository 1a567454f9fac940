// Statistics accumulators for latency measurements and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ibc {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; suitable for millions of samples.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance (0 if fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Reservoir of samples with exact quantiles. Stores every sample; meant
/// for per-experiment latency distributions (10^4..10^6 samples).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min();
  double max();

  /// Exact quantile, q in [0,1]; q=0.5 is the median. Empty -> 0.
  double quantile(double q);

  const std::vector<double>& values() const { return values_; }

 private:
  void ensure_sorted();

  std::vector<double> values_;
  bool sorted_ = false;
};

}  // namespace ibc
