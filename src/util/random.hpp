// Deterministic pseudo-random sources for simulation and workload synthesis.
//
// A self-contained xoshiro256** engine is used instead of std::mt19937 so
// that traces and Monte-Carlo results are bit-reproducible across standard
// library implementations (libstdc++/libc++ differ in distribution code, so
// the distributions are implemented here too).
#pragma once

#include <cstdint>
#include <vector>

namespace rps {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) using Lemire's method. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Standard normal via Box-Muller (cached spare value).
  double normal();
  double normal(double mean, double stddev);

  /// Exponential with the given mean (not rate).
  double exponential(double mean);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// Zipfian sampler over [0, n) with parameter theta in (0, 1).
///
/// Uses the Gray et al. computation (as popularized by YCSB) so that
/// sampling is O(1) after O(n)-free setup.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double theta() const { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

}  // namespace rps
