#include "src/sim/runner.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/ftl/parity_ftl.hpp"
#include "src/ftl/rtf_ftl.hpp"
#include "src/ftl/slc_ftl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace rps::sim {

std::unique_ptr<ftl::FtlBase> make_ftl(FtlKind kind, const ftl::FtlConfig& config) {
  switch (kind) {
    case FtlKind::kPage: return std::make_unique<ftl::PageFtl>(config);
    case FtlKind::kParity: return std::make_unique<ftl::ParityFtl>(config);
    case FtlKind::kRtf: return std::make_unique<ftl::RtfFtl>(config);
    case FtlKind::kFlex: return std::make_unique<core::FlexFtl>(config);
    case FtlKind::kSlc: return std::make_unique<ftl::SlcFtl>(config);
  }
  __builtin_unreachable();
}

RebootOutcome crash_reboot(FtlKind kind, ftl::FtlBase& ftl,
                           const std::vector<nand::PowerLossVictim>& victims,
                           Microseconds now, obs::TraceSink* sink) {
  RebootOutcome outcome;
  switch (kind) {
    case FtlKind::kFlex:
      outcome.recovery_supported = true;
      outcome.report =
          static_cast<core::FlexFtl&>(ftl).recover_from_power_loss(victims, now);
      break;
    case FtlKind::kPage:
    case FtlKind::kParity:
    case FtlKind::kRtf:
    case FtlKind::kSlc:
      // No recovery procedure: the reboot is an OOB media rescan. Pages the
      // cut destroyed read as ECC-uncorrectable and are dropped; the newest
      // intact copy of each LPN (if any) wins.
      ftl.rebuild_mapping();
      break;
  }
  if (sink != nullptr) {
    sink->record(obs::EventKind::kRecovery, 0, now,
                 outcome.recovery_supported ? outcome.report.recovery_time_us
                                            : Microseconds{-1},
                 outcome.report.pages_recovered, outcome.report.pages_lost,
                 outcome.recovery_supported ? 1 : 0);
  }
  return outcome;
}

nand::Geometry bench_geometry() {
  nand::Geometry g;
  g.channels = 8;
  g.chips_per_channel = 4;
  g.blocks_per_chip = 128;
  g.wordlines_per_block = 128;
  g.page_size_bytes = 4096;
  return g;
}

ExperimentSpec ExperimentSpec::bench_default() {
  ExperimentSpec spec;
  spec.ftl_config.geometry = bench_geometry();
  // Enterprise-class spare capacity: keeps steady-state write amplification
  // in the 1.3-1.8 range the paper's testbed operated in (its 16 GB slice
  // of a 512 GB-capable BlueDBM board was effectively overprovisioned).
  spec.ftl_config.overprovisioning = 0.20;
  spec.working_set_fraction = 0.80;
  return spec;
}

obs::StateSampler::Collector make_state_collector(const ftl::FtlBase& ftl,
                                                  const ctrl::Controller* controller) {
  assert(controller != nullptr);
  return [&ftl, controller](obs::StateSample& sample) {
    sample.q = ftl.observed_lsb_quota();
    sample.sbqueue = ftl.observed_slow_queue_depth();
    const nand::Geometry& geometry = ftl.device().geometry();
    std::uint64_t free_blocks = 0;
    for (std::uint32_t chip = 0; chip < geometry.num_units(); ++chip) {
      free_blocks += ftl.blocks().free_blocks(chip);
    }
    sample.free_fraction = static_cast<double>(free_blocks) /
                           static_cast<double>(geometry.total_blocks());
    sample.queued_write_ops = controller->write_queue_depth();
    sample.chip_queue.resize(controller->num_chips());
    for (std::uint32_t chip = 0; chip < controller->num_chips(); ++chip) {
      sample.chip_queue[chip] = controller->read_queue_depth(chip);
    }
    // Wear / WAF lanes (ISSUE 10). Cumulative device-lifetime values, not
    // per-run deltas: the time series shows wear accumulating and WAF
    // converging. The ledger scan is O(blocks) but runs only on emitted
    // (grid-point) samples; everything here is allocation-free.
    const nand::AttributionCounters& attribution = ftl.device().attribution();
    sample.waf = obs::waf_total(attribution);
    std::uint64_t max_pe = 0;
    std::uint64_t total_pe = 0;
    for (std::uint32_t chip = 0; chip < geometry.num_units(); ++chip) {
      for (const nand::BlockWear& wear : ftl.device().chip(chip).wear_ledger()) {
        max_pe = std::max(max_pe, wear.erases);
        total_pe += wear.erases;
      }
    }
    sample.wear_max_pe = max_pe;
    sample.wear_mean_pe =
        static_cast<double>(total_pe) / static_cast<double>(geometry.total_blocks());
  };
}

SimResult run_experiment(FtlKind kind, workload::Preset preset,
                         const ExperimentSpec& spec, obs::TraceSink* sink,
                         obs::StateSampler* sampler, const Snapshot* warm) {
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(kind, spec.ftl_config);
  Simulator simulator(*ftl, spec.sim);
  if (warm != nullptr) {
    const bool restored = simulator.warm_start(*warm);
    assert(restored);
    (void)restored;
  } else {
    simulator.precondition();
  }
  const Lpn working_set = static_cast<Lpn>(
      static_cast<double>(ftl->exported_pages()) * spec.working_set_fraction);
  // Warm-up: a sibling trace (same preset and locality, different seed)
  // drives GC to the workload's own steady state before measurement.
  const workload::Trace warmup = workload::generate(workload::preset_config(
      preset, working_set, spec.requests / 2, spec.seed ^ 0x77777777ull));
  simulator.warm_up(warmup);
  const workload::Trace trace = workload::generate(
      workload::preset_config(preset, working_set, spec.requests, spec.seed));
  // Observe only the measured run: attaching here keeps preconditioning
  // and warm-up noise out of the trace and the time series.
  if (sink != nullptr) simulator.set_trace_sink(sink);
  if (sampler != nullptr) {
    sampler->set_collector(make_state_collector(*ftl, &simulator.controller()));
    // With both observers attached, every emitted sample also lands in the
    // trace as Perfetto counter tracks ("C" events).
    if (sink != nullptr) sampler->set_counter_sink(sink);
    simulator.set_state_sampler(sampler);
  }
  SimResult result = simulator.run(trace);
  if (sampler != nullptr) {
    // The collector closes over this experiment's FTL, which dies with
    // this frame — never leave it installed.
    sampler->set_collector({});
    sampler->set_counter_sink(nullptr);
  }
  return result;
}

Snapshot make_precondition_snapshot(FtlKind kind, const ExperimentSpec& spec) {
  std::unique_ptr<ftl::FtlBase> ftl = make_ftl(kind, spec.ftl_config);
  Simulator simulator(*ftl, spec.sim);
  simulator.precondition();
  return simulator.checkpoint();
}

std::vector<SimResult> run_all_ftls(workload::Preset preset,
                                    const ExperimentSpec& spec,
                                    std::uint32_t jobs) {
  // Precondition each kind once (jobs-wide) and fork the experiments from
  // the snapshots — the fill phase is workload-independent, so this is
  // bit-identical to preconditioning inside every cell.
  std::vector<Snapshot> warm(std::size(kAllFtls));
  util::parallel_for_indexed(warm.size(), jobs, [&](std::size_t f) {
    warm[f] = make_precondition_snapshot(kAllFtls[f], spec);
  });
  std::vector<SimResult> results(std::size(kAllFtls));
  util::parallel_for_indexed(results.size(), jobs, [&](std::size_t f) {
    results[f] = run_experiment(kAllFtls[f], preset, spec, nullptr, nullptr, &warm[f]);
  });
  return results;
}

std::vector<std::vector<SimResult>> run_preset_matrix(
    const std::vector<workload::Preset>& presets, const ExperimentSpec& spec,
    std::uint32_t jobs) {
  constexpr std::size_t kFtls = std::size(kAllFtls);
  // One steady-state snapshot per FTL kind serves the whole matrix: the
  // preconditioning fill depends on (kind, spec) only, never the preset.
  std::vector<Snapshot> warm(kFtls);
  util::parallel_for_indexed(warm.size(), jobs, [&](std::size_t f) {
    warm[f] = make_precondition_snapshot(kAllFtls[f], spec);
  });
  std::vector<std::vector<SimResult>> results(presets.size(),
                                              std::vector<SimResult>(kFtls));
  // Flat (preset, ftl) index space; each cell writes only its own slot.
  util::parallel_for_indexed(
      presets.size() * kFtls, jobs, [&](std::size_t i) {
        const std::size_t p = i / kFtls;
        const std::size_t f = i % kFtls;
        results[p][f] = run_experiment(kAllFtls[f], presets[p], spec, nullptr,
                                       nullptr, &warm[f]);
      });
  return results;
}

namespace {

/// The value of `--NAME=V` or `--NAME V` in argv; nullopt when absent (a
/// trailing `--NAME` with no value counts as absent).
std::optional<std::string> flag_value(int argc, char** argv, const std::string& name) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == name && i + 1 < argc) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

/// Print why a flag value was rejected; returns the error for the caller.
ErrorCode reject(std::string_view flag, std::string_view value, const char* expected) {
  std::fprintf(stderr, "invalid %.*s value: '%.*s' (expected %s)\n",
               static_cast<int>(flag.size()), flag.data(), static_cast<int>(value.size()),
               value.data(), expected);
  return ErrorCode::kInvalidArgument;
}

/// The whole of `value` as an unsigned decimal integer <= `max`.
std::optional<std::uint64_t> decimal(std::string_view value, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc{} || stop != end || parsed > max) return std::nullopt;
  return parsed;
}

/// A positive count flag out of argv: `fallback` when absent, an error
/// for anything parse_count_value rejects.
template <typename T>
Result<T> parse_count_flag(int argc, char** argv, const std::string& name, T fallback) {
  const std::optional<std::string> value = flag_value(argc, argv, name);
  if (!value) return fallback;
  const Result<std::uint64_t> parsed =
      parse_count_value(name, *value, std::numeric_limits<T>::max());
  if (!parsed.is_ok()) return parsed.code();
  return static_cast<T>(parsed.value());
}

}  // namespace

Result<std::uint64_t> parse_count_value(std::string_view flag, std::string_view value,
                                        std::uint64_t max) {
  const std::optional<std::uint64_t> parsed = decimal(value, max);
  if (!parsed || *parsed == 0) return reject(flag, value, "a positive integer");
  return *parsed;
}

Result<std::uint64_t> parse_uint_value(std::string_view flag, std::string_view value,
                                       std::uint64_t max) {
  const std::optional<std::uint64_t> parsed = decimal(value, max);
  if (!parsed) return reject(flag, value, "a non-negative integer");
  return *parsed;
}

Result<double> parse_fraction_value(std::string_view flag, std::string_view value) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [stop, error] =
      std::from_chars(value.data(), end, parsed, std::chars_format::fixed);
  // The negated range test also rejects NaN.
  if (error != std::errc{} || stop != end || !(parsed >= 0.0 && parsed <= 1.0)) {
    return reject(flag, value, "a number in [0, 1]");
  }
  return parsed;
}

Result<bool> parse_switch_value(std::string_view flag, std::string_view value) {
  if (value == "0") return false;
  if (value == "1") return true;
  return reject(flag, value, "0 or 1");
}

Result<std::uint32_t> parse_jobs_flag(int argc, char** argv) {
  return parse_count_flag<std::uint32_t>(argc, argv, "--jobs", 1);
}

std::string parse_trace_flag(int argc, char** argv) {
  return flag_value(argc, argv, "--trace").value_or("");
}

std::string parse_metrics_flag(int argc, char** argv) {
  return flag_value(argc, argv, "--metrics").value_or("");
}

void add_result_metrics(obs::MetricsReport& report, const SimResult& result) {
  report.add_str("ftl", result.ftl_name);
  report.add_str("workload", result.workload_name);
  report.add_u64("requests", result.requests);
  report.add_u64("pages_written", result.pages_written);
  report.add_u64("pages_read", result.pages_read);
  report.add_i64("makespan_us", result.makespan_us);
  report.add_f64("iops_busy", result.iops_busy());
  report.add_f64("waf", result.waf());
  report.add_u64("erases", result.erases);
  report.add_attribution(result.attribution);
  report.add_wear(result.wear);
}

Result<std::uint64_t> parse_requests_flag(int argc, char** argv, std::uint64_t fallback) {
  return parse_count_flag<std::uint64_t>(argc, argv, "--requests", fallback);
}

}  // namespace rps::sim
