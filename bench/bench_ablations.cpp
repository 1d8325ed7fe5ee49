// Ablations: one table per design knob of flexFTL and its baselines (ours,
// plus the paper's future-work write predictor and the Section 5 related
// work). Each entry is a sweep of Fig. 8 experiments except `wear`, which
// drives a small device directly.
//
// Usage: bench_ablations [NAME...] [--metrics=PATH]
//   NAME            run only the named entries, in the order given (default:
//                   every entry in table order); an unknown name lists the
//                   entries and exits 2
//   --metrics=PATH  write the wear entry's obs::MetricsReport (one section
//                   per leveling threshold) to PATH
//
// Latency and bandwidth columns are quantiles of the run's mergeable
// histograms (bucket upper bounds, <0.8% relative error).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_fig8_common.hpp"
#include "src/core/flex_ftl.hpp"
#include "src/util/random.hpp"
#include "src/util/table.hpp"

using namespace rps;

namespace {

sim::ExperimentSpec ablation_spec() {
  sim::ExperimentSpec spec = bench::fig8_spec();
  spec.requests = 150'000;
  return spec;
}

std::string iops(const sim::SimResult& r) {
  return TablePrinter::fmt(r.iops_makespan(), 0);
}

std::string count(std::uint64_t n) {
  return TablePrinter::fmt_int(static_cast<std::int64_t>(n));
}

/// Latency percentile `p`, microseconds.
std::string lat(const sim::SimResult& r, double p) {
  return std::to_string(r.latency_hist_us.percentile(p));
}

/// Write-bandwidth percentile `p`: the histogram holds KB/s, the tables
/// report MB/s.
std::string bw(const sim::SimResult& r, double p) {
  const auto kbps = static_cast<double>(r.write_bw_kbps.percentile(p));
  return TablePrinter::fmt(kbps / 1000.0, 1);
}

/// Fraction of host writes served by LSB pages.
std::string lsb_share(const sim::SimResult& r) {
  return TablePrinter::fmt(
      static_cast<double>(r.ftl_stats.host_lsb_writes) /
          static_cast<double>(r.ftl_stats.host_lsb_writes + r.ftl_stats.host_msb_writes),
      2);
}

void print_table(const TablePrinter& table) {
  std::printf("%s\n", table.to_string().c_str());
}

// The LSB quota q. The paper motivates q as the guard against performance
// fluctuation: without it, a long burst consumes all free LSB pages and
// the bandwidth collapses to MSB speed. Sweeps the initial quota as a
// fraction of all LSB pages (the paper uses 5%).
void quota(obs::MetricsReport&) {
  std::printf("Ablation: flexFTL initial LSB quota q0 (Varmail)\n");
  std::printf("(paper setting: q0 = 5%% of all LSB pages)\n\n");
  TablePrinter table({"q0 fraction", "IOPS", "p50 lat (us)", "p99 lat (us)",
                      "bw p99.5 (MB/s)", "LSB share"});
  for (const double fraction : {0.0, 0.01, 0.05, 0.20, 1.00}) {
    sim::ExperimentSpec spec = ablation_spec();
    spec.ftl_config.initial_quota_fraction = fraction;
    const sim::SimResult r =
        run_experiment(sim::FtlKind::kFlex, workload::Preset::kVarmail, spec);
    table.add_row({TablePrinter::fmt(fraction, 2), iops(r), lat(r, 50), lat(r, 99),
                   bw(r, 99.5), lsb_share(r)});
    std::fflush(stdout);
  }
  print_table(table);
  std::printf("q0 = 0 disables LSB bursts entirely; very large q0 risks free-LSB\n");
  std::printf("exhaustion under sustained load (the fluctuation the paper warns of).\n");
}

// The policy manager's utilization thresholds u_high and u_low (the paper
// uses 80% / 10%): how the LSB/MSB mix and performance respond.
void thresholds(obs::MetricsReport&) {
  std::printf("Ablation: flexFTL policy thresholds (u_high, u_low) on Varmail\n");
  std::printf("(paper setting: u_high = 0.80, u_low = 0.10)\n\n");
  struct Setting {
    double u_high;
    double u_low;
  };
  // (1.01, 0.00): u never exceeds u_high and never drops below u_low —
  // the policy degenerates to pure alternation (an FPS-like flexFTL).
  const Setting settings[] = {{0.95, 0.05}, {0.80, 0.10}, {0.60, 0.20},
                              {0.50, 0.50}, {0.20, 0.10}, {1.01, 0.00}};
  TablePrinter table({"u_high", "u_low", "IOPS", "p50 lat (us)", "bw p99.5 (MB/s)",
                      "LSB share"});
  for (const Setting& s : settings) {
    sim::ExperimentSpec spec = ablation_spec();
    spec.ftl_config.u_high = s.u_high;
    spec.ftl_config.u_low = s.u_low;
    const sim::SimResult r =
        run_experiment(sim::FtlKind::kFlex, workload::Preset::kVarmail, spec);
    table.add_row({TablePrinter::fmt(s.u_high, 2), TablePrinter::fmt(s.u_low, 2), iops(r),
                   lat(r, 50), bw(r, 99.5), lsb_share(r)});
    std::fflush(stdout);
  }
  print_table(table);
}

// rtfFTL's active-block pool size. Section 5 argues return-to-fast is
// limited because its LSB pool is bounded by a few active blocks per chip
// (8 in the evaluation); even a large pool cannot match flexFTL, because
// FPS still interleaves MSB programs after at most two LSB pages per block.
void rtf_pool(obs::MetricsReport&) {
  std::printf("Ablation: rtfFTL active blocks per chip (Varmail)\n");
  std::printf("(paper setting: 8; flexFTL shown for reference)\n\n");
  TablePrinter table({"FTL", "active blocks", "IOPS", "p50 lat (us)", "bw p99.5 (MB/s)",
                      "erases", "backup pages"});
  const auto add = [&table](const sim::SimResult& r, const std::string& pool) {
    table.add_row({r.ftl_name, pool, iops(r), lat(r, 50), bw(r, 99.5), count(r.erases),
                   count(r.ftl_stats.backup_pages)});
  };
  for (const std::uint32_t pool : {1u, 2u, 4u, 8u, 16u}) {
    sim::ExperimentSpec spec = ablation_spec();
    spec.ftl_config.rtf_active_blocks = pool;
    add(run_experiment(sim::FtlKind::kRtf, workload::Preset::kVarmail, spec),
        TablePrinter::fmt_int(pool));
    std::fflush(stdout);
  }
  add(run_experiment(sim::FtlKind::kFlex, workload::Preset::kVarmail, ablation_spec()),
      "-");
  print_table(table);
}

// The page-cache-style future write predictor (the paper's conclusion).
// With prediction on, idle-time GC replenishes the LSB quota only to the
// observed burst demand instead of the static 5% ceiling: same burst
// absorption, less idle churn, fewer erasures.
void predictor(obs::MetricsReport&) {
  std::printf("Ablation: flexFTL future-write predictor (Varmail and Fileserver)\n\n");
  TablePrinter table({"Workload", "Predictor", "IOPS", "p50 lat (us)", "bw p99.5 (MB/s)",
                      "bgGC blocks", "erases"});
  for (const workload::Preset preset :
       {workload::Preset::kVarmail, workload::Preset::kFileserver}) {
    for (const bool use_predictor : {false, true}) {
      sim::ExperimentSpec spec = ablation_spec();
      spec.ftl_config.use_write_predictor = use_predictor;
      const sim::SimResult r = run_experiment(sim::FtlKind::kFlex, preset, spec);
      table.add_row({workload::to_string(preset), use_predictor ? "on" : "off", iops(r),
                     lat(r, 50), bw(r, 99.5), count(r.ftl_stats.background_gc_blocks),
                     count(r.erases)});
      std::fflush(stdout);
    }
  }
  print_table(table);
}

// flexFTL vs the Lee et al. [4] style SLC-mode FTL (Section 5). slcFTL gets
// SLC-class writes by never using MSB pages, at half the capacity; flexFTL
// reaches the same burst speed while exporting the full MLC capacity.
void slc(obs::MetricsReport&) {
  std::printf("Ablation: flexFTL vs the capacity-sacrificing SLC-mode baseline\n\n");
  sim::ExperimentSpec spec = ablation_spec();
  // Size the working set for the SLC device (half capacity) so the same
  // trace is fair to every FTL.
  spec.working_set_fraction = 0.40;
  TablePrinter table({"FTL", "exported pages", "IOPS", "p50 lat (us)", "bw p99.5 (MB/s)",
                      "WAF", "erases"});
  for (const sim::FtlKind kind :
       {sim::FtlKind::kPage, sim::FtlKind::kFlex, sim::FtlKind::kSlc}) {
    const sim::SimResult r = run_experiment(kind, workload::Preset::kVarmail, spec);
    const Lpn exported = sim::make_ftl(kind, spec.ftl_config)->exported_pages();
    table.add_row({r.ftl_name, count(exported), iops(r), lat(r, 50), bw(r, 99.5),
                   TablePrinter::fmt(r.waf(), 2), count(r.erases)});
    std::fflush(stdout);
  }
  print_table(table);
  std::printf("flexFTL approaches slcFTL's speed at twice the exported capacity —\n");
  std::printf("the paper's argument against capacity-sacrificing LSB-only designs.\n");
}

// Static wear leveling under a skewed workload. Wear evenness is Fig. 8(b)'s
// device-level counterpart: a hot/cold split concentrates erases on the
// blocks cycling the hot data, and the device dies by its hottest block.
// The wear numbers come from the device's per-block wear ledger
// (obs::collect_wear) and the erase total is split by WriteCause, showing
// that the leveler buys its bounded spread with wear_level-tagged erases.
void wear(obs::MetricsReport& report) {
  std::printf("Ablation: static wear leveling, flexFTL, 90%% cold / 10%% hot writes\n\n");
  TablePrinter table({"wear threshold", "total erases", "max PE", "min PE", "max/mean",
                      "CoV", "wl erases", "gc erases", "GC copies"});
  for (const std::uint64_t threshold : {0ull, 32ull, 16ull, 8ull}) {
    ftl::FtlConfig config;
    config.geometry = nand::Geometry{.channels = 2,
                                     .chips_per_channel = 2,
                                     .blocks_per_chip = 32,
                                     .wordlines_per_block = 32,
                                     .page_size_bytes = 2048,
                                     .spare_bytes = 32};
    config.overprovisioning = 0.2;
    config.wear_level_threshold = threshold;
    core::FlexFtl ftl(config);
    const Lpn n = ftl.exported_pages();
    for (Lpn lpn = 0; lpn < n; ++lpn) (void)ftl.write(lpn, 0, 0.5);
    // Hot/cold: all further writes hit 10% of the space; idle every 512
    // writes gives background GC and wear leveling room to act.
    Rng rng(3);
    const Lpn hot = n / 10;
    for (int i = 0; i < 120'000; ++i) {
      (void)ftl.write(rng.next_below(hot), 0, 0.5);
      if (i % 512 == 511) {
        const Microseconds t = ftl.device().all_idle_at();
        ftl.on_idle(t, t + 30'000'000);
      }
    }
    const obs::WearSummary w = obs::collect_wear(ftl.device());
    const nand::AttributionCounters& a = ftl.device().attribution();
    table.add_row({threshold == 0 ? "off" : count(threshold), count(w.total_erases),
                   count(w.max_erases), count(w.min_erases),
                   TablePrinter::fmt(w.max_over_mean_erases, 2),
                   TablePrinter::fmt(w.cov_erases, 2),
                   count(a.cause_erases(nand::WriteCause::kWearLevel)),
                   count(a.cause_erases(nand::WriteCause::kGcCopy)),
                   count(ftl.stats().gc_copy_pages)});
    report.begin(threshold == 0 ? "threshold_off"
                                : "threshold_" + std::to_string(threshold));
    report.add_attribution(a);
    report.add_wear(w);
    report.end();
    std::fflush(stdout);
  }
  print_table(table);
  std::printf("Leveling trades migration copies for a bounded wear spread: the\n");
  std::printf("device's end of life moves from the hottest block toward the mean.\n");
}

struct Ablation {
  const char* name;
  void (*run)(obs::MetricsReport& report);
};

constexpr Ablation kAblations[] = {
    {"quota", quota},         {"thresholds", thresholds}, {"rtf_pool", rtf_pool},
    {"predictor", predictor}, {"slc", slc},               {"wear", wear},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Ablation*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics=", 0) == 0) continue;
    if (arg == "--metrics") {
      ++i;  // skip the PATH
      continue;
    }
    const Ablation* match = nullptr;
    for (const Ablation& a : kAblations) {
      if (arg == a.name) match = &a;
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown ablation: %s\nablations:", arg.c_str());
      for (const Ablation& a : kAblations) std::fprintf(stderr, " %s", a.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(match);
  }
  if (selected.empty()) {
    for (const Ablation& a : kAblations) selected.push_back(&a);
  }

  obs::MetricsReport report;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (i > 0) std::printf("\n");
    selected[i]->run(report);
  }
  const std::string metrics_path = sim::parse_metrics_flag(argc, argv);
  if (!metrics_path.empty()) {
    if (!report.write_file(metrics_path)) {
      std::fprintf(stderr, "failed to write metrics report at: %s\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  return 0;
}
