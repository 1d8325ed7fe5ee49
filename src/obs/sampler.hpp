// Periodic FTL-state sampler on the simulated clock.
//
// A StateSampler emits one StateSample per elapsed `period_us` of
// simulated time, stamped on the absolute period grid (every sample's
// ts is a multiple of the period, and timestamps strictly increase — the
// cadence property the tests assert). It is *driven*, not self-running:
// the command controller ticks it at every event-queue instant and the
// simulator ticks it at request boundaries, so sampling needs no thread,
// no wall clock, and is exactly reproducible.
//
// What goes into a sample is the caller's business: the sampler stores a
// Collector callback (built by sim::make_state_collector from an FTL and
// its controller) so this layer depends on nothing above
// src/util. Disabled cost is a null-pointer test at every tick site; an
// attached sampler's off-grid tick costs one division and a compare.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/types.hpp"

namespace rps::obs {

class TraceSink;

/// One snapshot of the internal dynamics the paper's flexFTL is governed
/// by (Section 3.2), plus scheduler state. Fields an FTL has no notion of
/// keep their defaults (q = -1, sbqueue = 0).
struct StateSample {
  Microseconds ts = 0;        // simulated time, multiple of the period
  double u = 0.0;             // host write-buffer utilization [0, 1]
  std::int64_t q = -1;        // flexFTL LSB quota; -1 = not applicable
  std::uint64_t sbqueue = 0;  // total slow-block queue depth across chips
  double free_fraction = 0.0; // free blocks / total blocks, device-wide
  std::uint64_t queued_write_ops = 0;  // controller write FIFO depth
  std::vector<std::uint64_t> chip_queue;  // per-chip queued read ops

  // Wear / write-amplification lanes (ISSUE 10). Appended after the chip
  // columns in the CSV export so pre-existing column positions are
  // stable. Filled by collectors with wear-ledger access; defaults mean
  // "not collected".
  std::uint64_t wear_max_pe = 0;  // max per-block erase count, device-wide
  double wear_mean_pe = 0.0;      // mean per-block erase count, device-wide
  double waf = 0.0;  // cumulative WAF (attributed programs / host programs)
};

class StateSampler {
 public:
  using Collector = std::function<void(StateSample&)>;

  explicit StateSampler(Microseconds period_us, Collector collector = {});

  /// Install / replace the collector (harnesses that build the sampler
  /// before the FTL exists — e.g. run_experiment wires its own FTL and
  /// controller into a caller-supplied sampler).
  void set_collector(Collector collector) { collector_ = std::move(collector); }

  /// The latest host buffer utilization, stamped into every sample (the
  /// simulator updates it per request; it is not derivable from the FTL).
  void set_utilization(double u) { u_ = u; }

  /// Mirror every emitted sample into `sink` as Perfetto counter tracks
  /// ("C" events: utilization, free fraction, queue depths, WAF, wear).
  /// nullptr detaches. The sink is borrowed, same discipline as the
  /// simulator's trace sink; traced runs are single-threaded so the
  /// forwarded stream is deterministic.
  void set_counter_sink(TraceSink* sink) { counter_sink_ = sink; }

  /// Advance the sampler to simulated time `now`: emits one sample at
  /// floor(now / period) * period if that grid point has not been sampled
  /// yet. Call freely (every event instant) — off-grid calls are cheap.
  void tick(Microseconds now);

  [[nodiscard]] Microseconds period() const { return period_; }
  [[nodiscard]] const std::vector<StateSample>& samples() const { return samples_; }

  /// CSV time series: ts_us,u,q,sbqueue,free_frac,write_q,chip0,chip1,...
  /// (one chipN column per chip of the first sample).
  [[nodiscard]] std::string to_csv() const;
  bool write_csv(const std::string& path) const;

 private:
  void forward_counters(const StateSample& sample);

  Microseconds period_;
  Microseconds last_slot_ = -1;  // grid point of the newest sample
  double u_ = 0.0;
  Collector collector_;
  TraceSink* counter_sink_ = nullptr;  // borrowed; null = no counter tracks
  std::vector<StateSample> samples_;
};

}  // namespace rps::obs
