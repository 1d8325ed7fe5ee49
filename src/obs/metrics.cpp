#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/nand/device.hpp"

namespace rps::obs {

WearSummary summarize_wear(const std::vector<const nand::BlockWear*>& blocks) {
  WearSummary s;
  s.blocks = blocks.size();
  if (blocks.empty()) return s;

  // Pass 1: totals and extremes (and the sums the moments need).
  std::uint64_t sum_e = 0;
  std::uint64_t sum_p = 0;
  double sum_e_sq = 0.0;
  s.min_erases = blocks.front()->erases;
  s.min_programs = blocks.front()->programs;
  for (const nand::BlockWear* w : blocks) {
    sum_e += w->erases;
    sum_p += w->programs;
    const double e = static_cast<double>(w->erases);
    sum_e_sq += e * e;
    s.min_erases = std::min(s.min_erases, w->erases);
    s.max_erases = std::max(s.max_erases, w->erases);
    s.min_programs = std::min(s.min_programs, w->programs);
    s.max_programs = std::max(s.max_programs, w->programs);
  }
  s.total_erases = sum_e;
  s.total_programs = sum_p;
  const double n = static_cast<double>(blocks.size());
  s.mean_erases = static_cast<double>(sum_e) / n;
  s.mean_programs = static_cast<double>(sum_p) / n;
  if (s.mean_erases > 0.0) {
    // Population variance via E[x^2] - mean^2; clamp the tiny negative
    // rounding residue a uniform ledger can produce.
    const double var =
        std::max(0.0, sum_e_sq / n - s.mean_erases * s.mean_erases);
    s.cov_erases = std::sqrt(var) / s.mean_erases;
    s.max_over_mean_erases = static_cast<double>(s.max_erases) / s.mean_erases;
  }

  // Pass 2: fixed-width histogram sized to the observed maximum so every
  // bucket is meaningful at any wear level (width >= 1; last bucket
  // open-ended catches the max itself).
  s.bucket_width = s.max_erases / WearSummary::kHistBuckets + 1;
  for (const nand::BlockWear* w : blocks) {
    const std::uint64_t b =
        std::min<std::uint64_t>(w->erases / s.bucket_width,
                                WearSummary::kHistBuckets - 1);
    ++s.pe_histogram[b];
  }
  return s;
}

WearSummary collect_wear(const nand::NandDevice& device) {
  std::vector<const nand::BlockWear*> blocks;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < device.num_units(); ++c) {
    total += device.chip(c).wear_ledger().size();
  }
  blocks.reserve(total);
  for (std::uint32_t c = 0; c < device.num_units(); ++c) {
    for (const nand::BlockWear& w : device.chip(c).wear_ledger()) {
      blocks.push_back(&w);
    }
  }
  return summarize_wear(blocks);
}

double waf_of(const nand::AttributionCounters& a, nand::WriteCause cause) {
  const std::uint64_t host = a.programs(nand::WriteCause::kHost);
  if (host == 0) return 0.0;
  return static_cast<double>(a.programs(cause)) / static_cast<double>(host);
}

double waf_total(const nand::AttributionCounters& a) {
  const std::uint64_t host = a.programs(nand::WriteCause::kHost);
  if (host == 0) return 0.0;
  return static_cast<double>(a.total_programs()) / static_cast<double>(host);
}

MetricsReport::MetricsReport() {
  out_ = "{\"metrics_version\":";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u", kVersion);
  out_ += buf;
}

void MetricsReport::key_prefix(std::string_view key) {
  assert(!sealed_);
  if (need_comma_) out_ += ',';
  need_comma_ = true;
  out_ += '"';
  out_.append(key.data(), key.size());
  out_ += "\":";
}

void MetricsReport::begin(std::string_view key) {
  key_prefix(key);
  out_ += '{';
  need_comma_ = false;
  ++depth_;
}

void MetricsReport::end() {
  assert(depth_ > 1);  // the root object is closed by str()
  out_ += '}';
  need_comma_ = true;
  --depth_;
}

void MetricsReport::add_u64(std::string_view key, std::uint64_t v) {
  key_prefix(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
}

void MetricsReport::add_i64(std::string_view key, std::int64_t v) {
  key_prefix(key);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
}

void MetricsReport::add_f64(std::string_view key, double v) {
  key_prefix(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out_ += buf;
}

void MetricsReport::add_str(std::string_view key, std::string_view v) {
  key_prefix(key);
  out_ += '"';
  for (const char c : v) {
    // Report strings are FTL/preset names; escape the JSON must-escapes.
    if (c == '"' || c == '\\') out_ += '\\';
    out_ += c;
  }
  out_ += '"';
}

void MetricsReport::add_u64_array(std::string_view key, const std::uint64_t* v,
                                  std::size_t n) {
  key_prefix(key);
  out_ += '[';
  char buf[24];
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) out_ += ',';
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v[i]));
    out_ += buf;
  }
  out_ += ']';
}

void MetricsReport::add_attribution(const nand::AttributionCounters& a) {
  begin("attribution");
  begin("programs_by_cause");
  for (std::uint32_t c = 0; c < nand::kNumWriteCauses; ++c) {
    const nand::WriteCause cause = static_cast<nand::WriteCause>(c);
    begin(nand::to_string(cause));
    add_u64("lsb", a.lsb_programs[c]);
    add_u64("msb", a.msb_programs[c]);
    add_u64("total", a.programs(cause));
    end();
  }
  end();
  begin("erases_by_cause");
  for (std::uint32_t c = 0; c < nand::kNumWriteCauses; ++c) {
    add_u64(nand::to_string(static_cast<nand::WriteCause>(c)), a.erases[c]);
  }
  end();
  add_u64("total_programs", a.total_programs());
  add_u64("total_erases", a.total_erases());
  add_u64("meta_programs", a.meta_programs);
  add_u64_array("stream_programs", a.stream_programs.data(),
                a.stream_programs.size());
  begin("waf");
  add_f64("total", waf_total(a));
  for (std::uint32_t c = 0; c < nand::kNumWriteCauses; ++c) {
    const nand::WriteCause cause = static_cast<nand::WriteCause>(c);
    add_f64(nand::to_string(cause), waf_of(a, cause));
  }
  end();
  end();
}

void MetricsReport::add_wear(const WearSummary& w) {
  begin("wear");
  add_u64("blocks", w.blocks);
  add_u64("total_erases", w.total_erases);
  add_u64("total_programs", w.total_programs);
  add_u64("min_erases", w.min_erases);
  add_u64("max_erases", w.max_erases);
  add_f64("mean_erases", w.mean_erases);
  add_f64("cov_erases", w.cov_erases);
  add_f64("max_over_mean_erases", w.max_over_mean_erases);
  add_u64("min_programs", w.min_programs);
  add_u64("max_programs", w.max_programs);
  add_f64("mean_programs", w.mean_programs);
  add_u64("pe_bucket_width", w.bucket_width);
  add_u64_array("pe_histogram", w.pe_histogram.data(), w.pe_histogram.size());
  end();
}

std::string MetricsReport::str() {
  assert(depth_ == 1);  // every begin() matched by an end()
  if (!sealed_) {
    out_ += "}\n";
    sealed_ = true;
  }
  return out_;
}

bool MetricsReport::write_file(const std::string& path) {
  const std::string body = str();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.is_open()) return false;
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  return f.good();
}

}  // namespace rps::obs
