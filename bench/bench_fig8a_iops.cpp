// Fig. 8(a) reproduction: normalized IOPS of pageFTL, parityFTL, rtfFTL
// and flexFTL across the five workloads. The paper's headline numbers:
// flexFTL beats pageFTL by up to 16% (5% avg), parityFTL by up to 56%
// (35% avg) and rtfFTL by up to 61% (29% avg); it matches pageFTL on the
// idle-less OLTP/NTRX and the read-dominant Webserver.
#include <cstdio>

#include "bench/bench_fig8_common.hpp"
#include "src/util/table.hpp"

using namespace rps;

int main(int argc, char** argv) {
  sim::ExperimentSpec spec = bench::fig8_spec();
  const Result<std::uint64_t> requests =
      sim::parse_requests_flag(argc, argv, spec.requests);
  if (!requests.is_ok()) return 2;
  spec.requests = requests.value();
  if (!bench::apply_geometry_flag(argc, argv, spec)) return 2;
  const Result<std::uint32_t> jobs = sim::parse_jobs_flag(argc, argv);
  if (!jobs.is_ok()) return 2;
  std::printf("Fig. 8(a): normalized IOPS, 4 FTLs x 5 workloads\n");
  std::printf("(%llu requests per run; IOPS over makespan, closed-loop think time)\n\n",
              static_cast<unsigned long long>(spec.requests));

  const std::vector<workload::Preset> presets(std::begin(workload::kAllPresets),
                                              std::end(workload::kAllPresets));
  // All 20 preset x FTL experiments fan out jobs-wide; the matrix comes
  // back in loop order, so the table below is identical at any --jobs.
  const std::vector<std::vector<sim::SimResult>> matrix =
      sim::run_preset_matrix(presets, spec, jobs.value());

  TablePrinter table({"Workload", "pageFTL", "parityFTL", "rtfFTL", "flexFTL",
                      "flex/page", "flex/parity", "flex/rtf"});
  double sums[3] = {0, 0, 0};
  for (std::size_t p = 0; p < presets.size(); ++p) {
    const workload::Preset preset = presets[p];
    const std::vector<sim::SimResult>& results = matrix[p];
    const double page = results[0].iops_makespan();
    const double parity = results[1].iops_makespan();
    const double rtf = results[2].iops_makespan();
    const double flex = results[3].iops_makespan();
    table.add_row({workload::to_string(preset), TablePrinter::fmt(1.0, 2),
                   TablePrinter::fmt(parity / page, 2),
                   TablePrinter::fmt(rtf / page, 2),
                   TablePrinter::fmt(flex / page, 2),
                   TablePrinter::fmt(flex / page, 2),
                   TablePrinter::fmt(flex / parity, 2),
                   TablePrinter::fmt(flex / rtf, 2)});
    sums[0] += flex / page;
    sums[1] += flex / parity;
    sums[2] += flex / rtf;
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("flexFTL average gain: vs pageFTL %+.0f%% (paper: +5%%), "
              "vs parityFTL %+.0f%% (paper: +35%%), vs rtfFTL %+.0f%% (paper: +29%%)\n",
              (sums[0] / 5 - 1) * 100, (sums[1] / 5 - 1) * 100,
              (sums[2] / 5 - 1) * 100);
  if (!bench::maybe_write_metrics(argc, argv, presets, matrix)) return 2;
  return bench::maybe_write_flex_trace(argc, argv, workload::kAllPresets[0], spec)
             ? 0
             : 2;
}
