#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace ibc {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::min() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Samples::max() {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Samples::quantile(double q) {
  IBC_REQUIRE(q >= 0.0 && q <= 1.0);
  if (values_.empty()) return 0.0;
  ensure_sorted();
  // Nearest-rank with linear interpolation between adjacent order stats.
  const double pos = q * static_cast<double>(values_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Samples::ensure_sorted() {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

}  // namespace ibc
