#include "src/obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace rps::obs {

std::size_t LatencyHistogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // Values in [2^m, 2^(m+1)) with m >= kSubBucketBits map to octave
  // m - kSubBucketBits + 1, sub-bucket (value >> shift) - kSubBuckets.
  const auto msb = static_cast<std::uint32_t>(std::bit_width(value) - 1);
  const std::uint32_t shift = msb - kSubBucketBits;
  const std::uint64_t sub = (value >> shift) - kSubBuckets;
  return static_cast<std::size_t>((static_cast<std::uint64_t>(shift) + 1)
                                      * kSubBuckets +
                                  sub);
}

std::uint64_t LatencyHistogram::bucket_low(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t shift = index / kSubBuckets - 1;
  const std::uint64_t sub = index % kSubBuckets + kSubBuckets;
  return sub << shift;
}

std::uint64_t LatencyHistogram::bucket_high(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::uint64_t shift = index / kSubBuckets - 1;
  return bucket_low(index) + (1ull << shift) - 1;
}

void LatencyHistogram::add(std::uint64_t value, std::uint64_t count) {
  if (count == 0) return;
  const std::size_t index = bucket_index(value);
  if (index >= counts_.size()) counts_.resize(index + 1, 0);
  counts_[index] += count;
  total_ += count;
  sum_ += value * count;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.total_ == 0) return;
  if (other.counts_.size() > counts_.size()) counts_.resize(other.counts_.size(), 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max_;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return std::min(bucket_high(i), max_);
  }
  return max_;
}

double LatencyHistogram::cdf_at(std::uint64_t v) const {
  if (total_ == 0) return 0.0;
  const std::size_t cap = bucket_index(v);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size() && i <= cap; ++i) seen += counts_[i];
  return static_cast<double>(seen) / static_cast<double>(total_);
}

std::string LatencyHistogram::to_json() const {
  std::string out = "{\"count\":";
  char buf[96];
  const auto u64 = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    out += buf;
  };
  u64(total_);
  out += ",\"sum\":";
  u64(sum_);
  out += ",\"min\":";
  u64(min());
  out += ",\"max\":";
  u64(max_);
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += "{\"lo\":";
    u64(bucket_low(i));
    out += ",\"hi\":";
    u64(bucket_high(i));
    out += ",\"count\":";
    u64(counts_[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace rps::obs
