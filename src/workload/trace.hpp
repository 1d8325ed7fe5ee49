// A trace: an arrival-ordered request stream plus derived statistics
// (Table 1's read:write ratio and I/O intensiveness) and text-file I/O.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.hpp"
#include "src/workload/request.hpp"

namespace rps::workload {

/// Derived characteristics of a trace, mirroring Table 1.
struct TraceStats {
  std::uint64_t requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t write_pages = 0;
  Microseconds duration_us = 0;
  Microseconds mean_interarrival_us = 0;
  /// Fraction of the timeline covered by gaps longer than the idle
  /// threshold — "large idle times" in the paper's workload descriptions.
  double idle_fraction = 0.0;
  Microseconds idle_threshold_us = 0;

  [[nodiscard]] double read_fraction() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(read_requests) /
                               static_cast<double>(requests);
  }
  /// Requests per second over the whole trace.
  [[nodiscard]] double iops() const {
    return duration_us <= 0 ? 0.0
                            : static_cast<double>(requests) * 1e6 /
                                  static_cast<double>(duration_us);
  }
  /// Table 1's qualitative intensiveness bucket.
  [[nodiscard]] std::string intensiveness() const;
};

/// The whole of `text` as a T, by std::from_chars rules: no '+', and no
/// '-' for an unsigned T.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void add(IoRequest request) { requests_.push_back(request); }
  void reserve(std::size_t n) { requests_.reserve(n); }

  [[nodiscard]] const std::vector<IoRequest>& requests() const { return requests_; }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }

  /// Sort by arrival time (stable, preserves issue order at equal times).
  void sort_by_arrival();

  /// True iff arrivals are non-decreasing.
  [[nodiscard]] bool is_sorted() const;

  /// Largest LPN touched plus one (the address-space size this trace needs).
  [[nodiscard]] Lpn lpn_span() const;

  [[nodiscard]] TraceStats stats(Microseconds idle_threshold_us = 1000) const;

  /// Plain-text serialization: one "<arrival_us> <R|W> <lpn> <pages>" line
  /// per request. load rejects (kInvalidArgument) a line with other than
  /// those four fields, a kind other than R or W, a signed LPN or page
  /// count, a range past the last LPN, or an arrival before the previous
  /// one.
  Status save(const std::string& path) const;
  static Result<Trace> load(const std::string& path);

 private:
  std::string name_;
  std::vector<IoRequest> requests_;
};

}  // namespace rps::workload
