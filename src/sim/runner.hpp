// Shared experiment harness: builds an FTL, preconditions it, generates a
// workload preset and measures it. Every Fig. 8 bench and the examples go
// through this, so configurations stay comparable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/config.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/obs/sampler.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "src/workload/generator.hpp"

namespace rps::sim {

/// The four FTLs of the paper's evaluation, plus the capacity-sacrificing
/// SLC-mode baseline from the related work (Lee et al. [4]).
enum class FtlKind { kPage, kParity, kRtf, kFlex, kSlc };

/// The evaluation set of Fig. 8 (kSlc is a related-work extra).
inline constexpr FtlKind kAllFtls[] = {FtlKind::kPage, FtlKind::kParity,
                                       FtlKind::kRtf, FtlKind::kFlex};

constexpr const char* to_string(FtlKind kind) {
  // Exhaustive switch, no default path: -Werror=switch (set globally in
  // the top-level CMakeLists) turns a missing enumerator into a compile
  // error instead of a silent "?" in bench output.
  switch (kind) {
    case FtlKind::kPage: return "pageFTL";
    case FtlKind::kParity: return "parityFTL";
    case FtlKind::kRtf: return "rtfFTL";
    case FtlKind::kFlex: return "flexFTL";
    case FtlKind::kSlc: return "slcFTL";
  }
  __builtin_unreachable();
}

/// Instantiate an FTL by kind.
std::unique_ptr<ftl::FtlBase> make_ftl(FtlKind kind, const ftl::FtlConfig& config);

/// What rebooting an FTL after a power cut produced.
struct RebootOutcome {
  /// True when the FTL has a real recovery procedure for destroyed pages
  /// (flexFTL's parity reconstruction, Section 3.3). False means the
  /// reboot was a best-effort media rescan: acknowledged data destroyed by
  /// the cut stays lost, by design of that FTL.
  bool recovery_supported = false;
  /// flexFTL's recovery report; zeroes for unsupported kinds.
  core::RecoveryReport report;
};

/// Crash-and-reboot orchestration: bring `ftl` back up after a power cut
/// at `now`, with `victims` as reported by the injection
/// (NandDevice::inject_power_loss or Controller::power_loss). flexFTL
/// replays its parity-based recovery; every other kind loses its RAM
/// tables and rebuilds the mapping from the media's out-of-band metadata.
/// With `sink` attached, records one kRecovery event covering the
/// recovery phase.
RebootOutcome crash_reboot(FtlKind kind, ftl::FtlBase& ftl,
                           const std::vector<nand::PowerLossVictim>& victims,
                           Microseconds now, obs::TraceSink* sink = nullptr);

/// The geometry the benchmarks use: the paper's channel/chip organization
/// (8 x 4) with fewer blocks per chip (128 instead of 512) so a full
/// steady-state run fits in seconds. 256 x 4 KB pages per block as in the
/// paper; 4 GB total.
nand::Geometry bench_geometry();

struct ExperimentSpec {
  ftl::FtlConfig ftl_config;
  SimConfig sim;
  std::uint64_t requests = 200'000;
  /// Fraction of exported pages the workload touches.
  double working_set_fraction = 0.90;
  std::uint64_t seed = 1;

  static ExperimentSpec bench_default();
};

/// Precondition + replay one preset against one FTL. `sink` / `sampler`
/// (optional) observe the *measured* run only — they attach after
/// preconditioning and warm-up, so the trace and time series hold exactly
/// what the result row measures. A caller-supplied sampler gets its
/// collector wired to this experiment's FTL and controller
/// (make_state_collector); its samples must be consumed before the next
/// attach. Traced runs are meant to be single experiments: the parallel
/// drivers below never attach observers, which is what keeps traced
/// output trivially --jobs-invariant.
/// With `warm` non-null, run_experiment forks from the snapshot instead
/// of re-running precondition() — bit-identical results, minus the fill
/// cost. The snapshot must come from make_precondition_snapshot with the
/// same (kind, spec); warm-up still runs per experiment (it depends on
/// the preset and seed, the snapshot does not).
SimResult run_experiment(FtlKind kind, workload::Preset preset,
                         const ExperimentSpec& spec,
                         obs::TraceSink* sink = nullptr,
                         obs::StateSampler* sampler = nullptr,
                         const Snapshot* warm = nullptr);

/// Precondition a fresh FTL of `kind` under `spec` and capture the
/// steady-state device. Workload-independent: one snapshot per (kind,
/// spec) serves every preset and seed of a sweep.
Snapshot make_precondition_snapshot(FtlKind kind, const ExperimentSpec& spec);

/// Build a StateSampler collector snapshotting `ftl` (quota, SBQueue
/// depth, free-block fraction) and `controller`'s queue depths. Both
/// borrowed: they must outlive the sampler's use. `controller` must be
/// non-null.
obs::StateSampler::Collector make_state_collector(const ftl::FtlBase& ftl,
                                                  const ctrl::Controller* controller);

/// Run all four FTLs against one preset (shared trace). With `jobs` > 1
/// the four independent experiments run concurrently; results stay in
/// kAllFtls order either way.
std::vector<SimResult> run_all_ftls(workload::Preset preset, const ExperimentSpec& spec,
                                    std::uint32_t jobs = 1);

/// Run every preset x evaluation-FTL experiment `jobs`-wide. Each
/// experiment builds its own FTL/simulator/trace from (kind, preset,
/// spec) — nothing is shared — so they parallelize freely; results land
/// in [preset][ftl] order (ftl order = kAllFtls), bit-identical to the
/// sequential nested loop for any jobs value.
std::vector<std::vector<SimResult>> run_preset_matrix(
    const std::vector<workload::Preset>& presets, const ExperimentSpec& spec,
    std::uint32_t jobs);

/// Parse the value of one numeric bench flag; `flag` names it in the
/// error message. Each returns kInvalidArgument — after printing the flag
/// and its value to stderr — unless `value` is exactly of its kind:
///   parse_count_value     a positive decimal integer no larger than `max`
///   parse_uint_value      a decimal integer (0 allowed) no larger than `max`
///   parse_fraction_value  a decimal number in [0, 1]
///   parse_switch_value    "0" or "1"
/// No sign, no surrounding blanks, no trailing characters.
Result<std::uint64_t> parse_count_value(std::string_view flag, std::string_view value,
                                        std::uint64_t max = UINT64_MAX);
Result<std::uint64_t> parse_uint_value(std::string_view flag, std::string_view value,
                                       std::uint64_t max = UINT64_MAX);
Result<double> parse_fraction_value(std::string_view flag, std::string_view value);
Result<bool> parse_switch_value(std::string_view flag, std::string_view value);

/// Parse a `--jobs=N` / `--jobs N` pair out of argv (for the bench
/// drivers). Returns 1 when absent, and kInvalidArgument — after printing
/// the bad flag to stderr — unless N is a positive decimal integer (no
/// sign, no trailing characters).
Result<std::uint32_t> parse_jobs_flag(int argc, char** argv);

/// Parse `--trace=PATH` / `--trace PATH` out of argv (bench drivers:
/// where to write the Chrome trace JSON). Empty string = absent.
std::string parse_trace_flag(int argc, char** argv);

/// Parse `--requests=N` / `--requests N` out of argv (CI smoke runs shrink
/// the benches with this); `fallback` when absent, kInvalidArgument as
/// parse_jobs_flag for a malformed N.
Result<std::uint64_t> parse_requests_flag(int argc, char** argv, std::uint64_t fallback);

/// Parse `--metrics=PATH` / `--metrics PATH` out of argv (bench drivers:
/// where to write the obs::MetricsReport JSON). Empty string = absent.
std::string parse_metrics_flag(int argc, char** argv);

/// Append one experiment's results to an open MetricsReport: headline
/// numbers, then the attribution and wear sections. Callers wrap each
/// experiment in its own report.begin(label)/end() pair, so a sweep's
/// report is one JSON object per cell in sweep order — deterministic and
/// --jobs-invariant because SimResult itself is.
void add_result_metrics(obs::MetricsReport& report, const SimResult& result);

}  // namespace rps::sim
