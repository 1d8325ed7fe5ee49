#include "src/obs/sampler.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "src/obs/trace.hpp"

namespace rps::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

// Fixed-precision doubles keep the exports byte-deterministic across
// runs (the values themselves are deterministic; %.6f just pins the text).
void append_f64(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

bool write_text(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

StateSampler::StateSampler(Microseconds period_us, Collector collector)
    : period_(period_us > 0 ? period_us : 1), collector_(std::move(collector)) {}


void StateSampler::tick(Microseconds now) {
  const Microseconds slot = now - now % period_;
  if (slot <= last_slot_) return;
  last_slot_ = slot;
  StateSample sample;
  sample.ts = slot;
  sample.u = u_;
  if (collector_) collector_(sample);
  if (counter_sink_ != nullptr) forward_counters(sample);
  samples_.push_back(std::move(sample));
}

void StateSampler::forward_counters(const StateSample& s) {
  // Fixed-point scaling (x1e6, round-to-nearest) keeps the trace stream
  // all-integer; the exporter restores the natural unit with %.6f.
  const auto micro = [](double v) {
    return static_cast<std::uint64_t>(std::llround(v * 1e6));
  };
  TraceSink& sink = *counter_sink_;
  sink.record_counter(CounterTrack::kUtilization, s.ts, micro(s.u));
  sink.record_counter(CounterTrack::kFreeFraction, s.ts, micro(s.free_fraction));
  sink.record_counter(CounterTrack::kWriteQueue, s.ts, s.queued_write_ops * 1000000);
  sink.record_counter(CounterTrack::kSbQueue, s.ts, s.sbqueue * 1000000);
  if (s.q >= 0) {
    sink.record_counter(CounterTrack::kLsbQuota, s.ts,
                        static_cast<std::uint64_t>(s.q) * 1000000);
  }
  sink.record_counter(CounterTrack::kWaf, s.ts, micro(s.waf));
  sink.record_counter(CounterTrack::kMaxPe, s.ts, s.wear_max_pe * 1000000);
  sink.record_counter(CounterTrack::kMeanPe, s.ts, micro(s.wear_mean_pe));
}

std::string StateSampler::to_csv() const {
  std::string out = "ts_us,u,q,sbqueue,free_frac,write_q";
  const std::size_t chips = samples_.empty() ? 0 : samples_.front().chip_queue.size();
  for (std::size_t c = 0; c < chips; ++c) {
    out += ",chip";
    append_u64(out, c);
  }
  out += ",max_pe,mean_pe,waf";
  out += '\n';
  for (const StateSample& s : samples_) {
    append_i64(out, s.ts);
    out += ',';
    append_f64(out, s.u);
    out += ',';
    append_i64(out, s.q);
    out += ',';
    append_u64(out, s.sbqueue);
    out += ',';
    append_f64(out, s.free_fraction);
    out += ',';
    append_u64(out, s.queued_write_ops);
    for (std::size_t c = 0; c < chips; ++c) {
      out += ',';
      append_u64(out, c < s.chip_queue.size() ? s.chip_queue[c] : 0);
    }
    out += ',';
    append_u64(out, s.wear_max_pe);
    out += ',';
    append_f64(out, s.wear_mean_pe);
    out += ',';
    append_f64(out, s.waf);
    out += '\n';
  }
  return out;
}

bool StateSampler::write_csv(const std::string& path) const {
  return write_text(path, to_csv());
}

}  // namespace rps::obs
