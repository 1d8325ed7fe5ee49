// Attributed wear and write-amplification accounting (ISSUE 10).
//
// Three pieces:
//
//   * WearSummary — a deterministic digest of the per-block wear ledgers
//     the NAND layer maintains (nand::BlockWear): P/E extremes, mean,
//     coefficient of variation, max/mean imbalance, and a fixed-width
//     P/E-count histogram. collect_wear() walks every physical block of a
//     device (MLC or TLC cells) in address order, so the summary is a
//     pure function of device state — identical across runs and --jobs.
//
//   * Cause-tagged WAF decomposition — nand::AttributionCounters splits
//     the device's program/erase totals by WriteCause (host, gc_copy,
//     wear_level, parity, backup, scrub, meta). Because attribution is
//     charged at the same instants as the device OpCounters, the split is
//     exact: components sum to the device totals, and the per-cause WAF
//     contributions sum to the overall WAF. waf_of() exposes that.
//
//   * MetricsReport — a versioned, ordered JSON report builder. Keys are
//     emitted in call order with canonical formatting (%.6f doubles, no
//     whitespace variation), so two runs that compute the same numbers
//     produce byte-identical files regardless of thread count. The
//     schema opens with {"metrics_version":1,...} so downstream tooling
//     can reject incompatible layouts.
//
// This layer is post-run reporting: nothing here runs inside the
// allocation-audited hot path (the ledgers themselves are preallocated in
// the device constructors; see nand::Chip).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/nand/attribution.hpp"

namespace rps::nand {
class NandDevice;
}  // namespace rps::nand

namespace rps::obs {

/// Deterministic digest of a device's per-block wear ledgers.
struct WearSummary {
  /// Fixed histogram width: erase counts bucket into
  /// [i*bucket_width, (i+1)*bucket_width); the last bucket is open-ended.
  static constexpr std::uint32_t kHistBuckets = 16;

  std::uint64_t blocks = 0;  ///< physical blocks surveyed (incl. retired)
  std::uint64_t total_erases = 0;
  std::uint64_t total_programs = 0;
  std::uint64_t min_erases = 0;
  std::uint64_t max_erases = 0;
  double mean_erases = 0.0;
  /// stddev/mean of per-block erase counts; 0 when mean is 0. The paper's
  /// wear-leveling claims are about keeping this (and max/mean) small.
  double cov_erases = 0.0;
  double max_over_mean_erases = 0.0;
  std::uint64_t min_programs = 0;
  std::uint64_t max_programs = 0;
  double mean_programs = 0.0;
  std::uint64_t bucket_width = 1;
  std::array<std::uint64_t, kHistBuckets> pe_histogram{};

  friend bool operator==(const WearSummary&, const WearSummary&) = default;
};

/// Summarize an explicit ledger span (exposed for tests; collect_wear
/// concatenates the per-chip ledgers of a device in unit order).
[[nodiscard]] WearSummary summarize_wear(const std::vector<const nand::BlockWear*>& blocks);

[[nodiscard]] WearSummary collect_wear(const nand::NandDevice& device);

/// WAF contribution of one cause: programs(cause) / host programs.
/// Contributions over all causes sum exactly to total WAF because the
/// attribution split is conservative (see nand::AttributionCounters).
[[nodiscard]] double waf_of(const nand::AttributionCounters& a, nand::WriteCause cause);

/// Total WAF from the attributed counters: total programs / host programs
/// (0 when no host programs were charged).
[[nodiscard]] double waf_total(const nand::AttributionCounters& a);

/// Versioned ordered-JSON metrics report. Append-only builder: values are
/// emitted in call order, nested objects via begin/end. Formatting is
/// canonical (no spaces, %.6f doubles, lower-case keys by convention), so
/// equal inputs yield byte-identical output.
class MetricsReport {
 public:
  static constexpr std::uint32_t kVersion = 1;

  MetricsReport();

  /// Open / close a nested JSON object. Sections may nest.
  void begin(std::string_view key);
  void end();

  void add_u64(std::string_view key, std::uint64_t v);
  void add_i64(std::string_view key, std::int64_t v);
  void add_f64(std::string_view key, double v);  // canonical %.6f
  void add_str(std::string_view key, std::string_view v);
  void add_u64_array(std::string_view key, const std::uint64_t* v, std::size_t n);

  /// Emit the full cause-tagged breakdown as a "attribution" section:
  /// per-cause program/erase counts, meta pages, per-stream programs, and
  /// the WAF decomposition (total + per-cause contributions).
  void add_attribution(const nand::AttributionCounters& a);

  /// Emit a WearSummary as a "wear" section.
  void add_wear(const WearSummary& w);

  /// Finish the report and return the canonical JSON string. The builder
  /// is sealed afterwards (further adds are programming errors, asserted).
  [[nodiscard]] std::string str();

  /// Finish and write to `path` (truncating). Returns false on I/O error.
  [[nodiscard]] bool write_file(const std::string& path);

 private:
  void key_prefix(std::string_view key);

  std::string out_;
  std::uint32_t depth_ = 1;     // inside the root object
  bool need_comma_ = true;      // root already holds metrics_version
  bool sealed_ = false;
};

}  // namespace rps::obs
