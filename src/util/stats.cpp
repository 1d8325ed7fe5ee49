#include "src/util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace rps {

void StreamingStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::reset() { *this = StreamingStats{}; }

double StreamingStats::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double StreamingStats::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  assert(!samples_.empty());
  assert(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_.front();
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

BoxPlot SampleSet::box_plot() const {
  BoxPlot box;
  if (samples_.empty()) return box;
  box.min = percentile(0.0);
  box.q1 = percentile(25.0);
  box.median = percentile(50.0);
  box.q3 = percentile(75.0);
  box.max = percentile(100.0);
  box.mean = mean();
  box.count = samples_.size();
  return box;
}

double SampleSet::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::cdf_curve(std::size_t points) const {
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || points < 2) return curve;
  ensure_sorted();
  const double lo = samples_.front();
  const double hi = samples_.back();
  curve.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(points - 1);
    curve.emplace_back(x, cdf_at(x));
  }
  return curve;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo);
  assert(bins > 0);
}

void Histogram::add(double x, std::uint64_t weight) {
  const double span = hi_ - lo_;
  auto bin = static_cast<std::int64_t>((x - lo_) / span *
                                       static_cast<double>(counts_.size()));
  bin = std::clamp<std::int64_t>(bin, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += weight;
  total_ += weight;
}

double Histogram::bin_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_high(std::size_t i) const { return bin_low(i + 1); }

std::string Histogram::to_ascii(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out << "[" << bin_low(i) << ", " << bin_high(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace rps
