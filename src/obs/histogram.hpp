// Log-bucketed, mergeable latency histogram.
//
// Replaces the ad-hoc sort-and-index percentile code of the bench
// harnesses with a fixed bucket layout whose contents are plain integer
// counts: merging two histograms is element-wise u64 addition, which is
// commutative and associative — so a sweep that shards samples across
// parallel_for_indexed slots and merges the per-slot histograms in slot
// order produces bit-identical results for ANY --jobs value (and any
// merge order).
//
// Bucket layout (HdrHistogram-style): values below 2^kSubBucketBits are
// exact (one bucket per integer); above that, each power-of-two octave is
// split into 2^kSubBucketBits linear sub-buckets, so every reported
// quantile is within a 2^-kSubBucketBits (< 0.8%) relative error of the
// true sample. Quantiles are reported as the bucket's upper bound, capped
// at the observed max — deterministic, and never below the true value.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rps::obs {

class LatencyHistogram {
 public:
  /// Sub-buckets per octave = 2^7 = 128 -> <0.8% relative quantile error.
  static constexpr std::uint32_t kSubBucketBits = 7;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

  /// Record `count` samples of `value` (microseconds, or any non-negative
  /// integer unit — the histogram is unit-agnostic).
  void add(std::uint64_t value, std::uint64_t count = 1);

  /// Element-wise accumulate `other` into this. Exact: counts, sum, min
  /// and max all combine with commutative integer ops.
  void merge(const LatencyHistogram& other);

  /// Pre-size the bucket array to its maximum possible extent (~58 KiB)
  /// so no later add() grows it — lets a caller front-load every
  /// allocation before an allocation-audited window. Semantics are
  /// unchanged: trailing zero buckets are invisible to ==, to_json and
  /// the quantile queries.
  void reserve_max() {
    const std::size_t full =
        bucket_index(std::numeric_limits<std::uint64_t>::max()) + 1;
    if (counts_.size() < full) counts_.resize(full, 0);
  }

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  /// Exact sum of every added value (not bucket-quantized).
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return total_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(total_);
  }

  /// Value at percentile p in [0, 100]: the upper bound of the bucket
  /// holding the ceil(p/100 * count)-th smallest sample, capped at max().
  [[nodiscard]] std::uint64_t percentile(double p) const;
  [[nodiscard]] std::uint64_t p50() const { return percentile(50.0); }
  [[nodiscard]] std::uint64_t p95() const { return percentile(95.0); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(99.0); }
  [[nodiscard]] std::uint64_t p999() const { return percentile(99.9); }

  /// Empirical CDF: fraction of samples whose bucket lies at or below the
  /// bucket of `v` (within one bucket's relative error of the true CDF).
  [[nodiscard]] double cdf_at(std::uint64_t v) const;

  /// Non-empty buckets as {"lo":..,"hi":..,"count":..} JSON (tests and
  /// artifacts; byte-deterministic).
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const LatencyHistogram& x, const LatencyHistogram& y) {
    if (x.total_ != y.total_ || x.sum_ != y.sum_ || x.max_ != y.max_) return false;
    if (x.min() != y.min()) return false;
    // Trailing zero buckets are insignificant (growth is on demand).
    const std::size_t n = std::max(x.counts_.size(), y.counts_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t cx = i < x.counts_.size() ? x.counts_[i] : 0;
      const std::uint64_t cy = i < y.counts_.size() ? y.counts_[i] : 0;
      if (cx != cy) return false;
    }
    return true;
  }

  /// Bucket arithmetic (exposed for tests).
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value);
  /// Inclusive upper bound of bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_high(std::size_t index);
  /// Inclusive lower bound of bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t index);

 private:
  std::vector<std::uint64_t> counts_;  // grown on demand
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace rps::obs
