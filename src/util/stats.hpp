// Statistics helpers used by the reliability study, the simulator metrics
// and every benchmark harness: streaming moments, percentile extraction,
// five-number box-plot summaries (Fig. 4a) and empirical CDFs (Fig. 8c).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rps {

/// Streaming mean/variance/min/max (Welford's algorithm).
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);
  void reset();

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number summary plus mean, matching the paper's box plots (Fig. 4a).
struct BoxPlot {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;
};

/// Sample container with percentile/box-plot/CDF extraction.
///
/// Samples are stored and sorted lazily on the first query after an insert.
class SampleSet {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Linear-interpolated percentile; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double min() const { return percentile(0.0); }
  [[nodiscard]] double max() const { return percentile(100.0); }
  [[nodiscard]] double mean() const;

  [[nodiscard]] BoxPlot box_plot() const;

  /// Empirical CDF evaluated at `x`: fraction of samples <= x.
  [[nodiscard]] double cdf_at(double x) const;

  /// `points` evenly spaced (x, F(x)) pairs spanning [min, max].
  [[nodiscard]] std::vector<std::pair<double, double>> cdf_curve(std::size_t points) const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_low(std::size_t i) const;
  [[nodiscard]] double bin_high(std::size_t i) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Render an ASCII bar chart (used by bench harness output).
  [[nodiscard]] std::string to_ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace rps
