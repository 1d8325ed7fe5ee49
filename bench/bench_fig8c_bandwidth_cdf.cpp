// Fig. 8(c) reproduction: CDF curves of write bandwidth for Varmail.
// The paper: flexFTL's peak write bandwidth is ~2.13x the best competitor's
// and its average write bandwidth is 24% above parityFTL / 17% above
// rtfFTL — the visible effect of absorbing bursts with LSB-only writes.
//
// Flags: --jobs=N parallelizes the four FTL runs; --requests=N overrides
// the request count; --trace=PATH runs one traced flexFTL experiment and
// writes Chrome trace JSON + state CSV (see bench_fig8_common.hpp).
#include <cstdio>

#include "bench/bench_fig8_common.hpp"
#include "src/util/table.hpp"

using namespace rps;

namespace {

// The shared histogram stores integer KB/s (bytes per window scaled by
// 1000/window_us); the tables report MB/s.
double mbps(std::uint64_t kbps) { return static_cast<double>(kbps) / 1000.0; }

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentSpec spec = bench::fig8_spec();
  spec.sim.bw_window_us = 50'000;
  const Result<std::uint64_t> requests =
      sim::parse_requests_flag(argc, argv, spec.requests);
  if (!requests.is_ok()) return 2;
  spec.requests = requests.value();
  if (!bench::apply_geometry_flag(argc, argv, spec)) return 2;
  const Result<std::uint32_t> jobs = sim::parse_jobs_flag(argc, argv);
  if (!jobs.is_ok()) return 2;
  std::printf("Fig. 8(c): CDF of write bandwidth for Varmail (50 ms windows)\n\n");

  const std::vector<sim::SimResult> results =
      run_all_ftls(workload::Preset::kVarmail, spec, jobs.value());

  // CDF table: fraction of windows with bandwidth <= x. Sourced from the
  // mergeable KB/s histogram — the same numbers for any --jobs value.
  TablePrinter cdf({"MB/s", "pageFTL", "parityFTL", "rtfFTL", "flexFTL"});
  for (double x = 0.0; x <= 160.0; x += 10.0) {
    std::vector<std::string> row{TablePrinter::fmt(x, 0)};
    for (const sim::SimResult& r : results) {
      row.push_back(TablePrinter::fmt(
          r.write_bw_kbps.cdf_at(static_cast<std::uint64_t>(x * 1000.0)), 2));
    }
    cdf.add_row(row);
  }
  std::printf("%s\n", cdf.to_string().c_str());

  TablePrinter summary({"FTL", "mean MB/s", "median", "p95", "peak (p99.5)"});
  for (const sim::SimResult& r : results) {
    const obs::LatencyHistogram& h = r.write_bw_kbps;
    summary.add_row({r.ftl_name, TablePrinter::fmt(h.mean() / 1000.0, 1),
                     TablePrinter::fmt(mbps(h.percentile(50)), 1),
                     TablePrinter::fmt(mbps(h.percentile(95)), 1),
                     TablePrinter::fmt(mbps(h.percentile(99.5)), 1)});
  }
  std::printf("%s\n", summary.to_string().c_str());

  const double flex_peak = mbps(results[3].write_bw_kbps.percentile(99.5));
  double best_other_peak = 0.0;
  std::string best_other = "?";
  for (int i = 0; i < 3; ++i) {
    const double peak = mbps(results[i].write_bw_kbps.percentile(99.5));
    if (peak > best_other_peak) {
      best_other_peak = peak;
      best_other = results[i].ftl_name;
    }
  }
  std::printf("flexFTL peak = %.2fx the best competitor's (%s); paper: 2.13x\n",
              flex_peak / best_other_peak, best_other.c_str());
  std::printf("flexFTL mean = %+.0f%% vs parityFTL (paper: +24%%), %+.0f%% vs rtfFTL (paper: +17%%)\n",
              (results[3].write_bw_kbps.mean() / results[1].write_bw_kbps.mean() - 1) * 100,
              (results[3].write_bw_kbps.mean() / results[2].write_bw_kbps.mean() - 1) * 100);
  if (!bench::maybe_write_metrics(argc, argv, {workload::Preset::kVarmail},
                                  {results})) {
    return 2;
  }
  return bench::maybe_write_flex_trace(argc, argv, workload::Preset::kVarmail,
                                       spec)
             ? 0
             : 2;
}
