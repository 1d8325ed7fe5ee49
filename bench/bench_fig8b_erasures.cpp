// Fig. 8(b) reproduction: normalized block erasure counts (the lifetime
// metric). The paper: flexFTL reduces erasures by up to 30% (23% avg) over
// parityFTL and up to 32% (28% avg) over rtfFTL, thanks to the per-block
// parity backup that the 2PO scheme enables.
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
  std::printf("Fig. 8(b): normalized block erasure counts, 4 FTLs x 5 workloads\n");
  std::printf("(erasures during the measured run, normalized to pageFTL)\n\n");

  const std::vector<workload::Preset> presets(std::begin(workload::kAllPresets),
                                              std::end(workload::kAllPresets));
  const std::vector<std::vector<sim::SimResult>> matrix =
      sim::run_preset_matrix(presets, spec, jobs.value());

  TablePrinter table({"Workload", "pageFTL", "parityFTL", "rtfFTL", "flexFTL",
                      "flex vs parity", "flex vs rtf", "backup pages (flex/parity/rtf)"});
  double reduction_parity = 0.0;
  double reduction_rtf = 0.0;
  for (std::size_t p = 0; p < presets.size(); ++p) {
    const workload::Preset preset = presets[p];
    const std::vector<sim::SimResult>& results = matrix[p];
    const auto page = static_cast<double>(results[0].erases);
    const auto parity = static_cast<double>(results[1].erases);
    const auto rtf = static_cast<double>(results[2].erases);
    const auto flex = static_cast<double>(results[3].erases);
    reduction_parity += 1.0 - flex / parity;
    reduction_rtf += 1.0 - flex / rtf;
    table.add_row(
        {workload::to_string(preset), TablePrinter::fmt(1.0, 2),
         TablePrinter::fmt(parity / page, 2), TablePrinter::fmt(rtf / page, 2),
         TablePrinter::fmt(flex / page, 2),
         TablePrinter::fmt((1.0 - flex / parity) * 100, 0) + "%",
         TablePrinter::fmt((1.0 - flex / rtf) * 100, 0) + "%",
         TablePrinter::fmt_int(static_cast<std::int64_t>(results[3].ftl_stats.backup_pages)) +
             " / " +
             TablePrinter::fmt_int(static_cast<std::int64_t>(results[1].ftl_stats.backup_pages)) +
             " / " +
             TablePrinter::fmt_int(static_cast<std::int64_t>(results[2].ftl_stats.backup_pages))});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("flexFTL average erasure reduction: vs parityFTL %.0f%% (paper: 23%%), "
              "vs rtfFTL %.0f%% (paper: 28%%)\n",
              reduction_parity / 5 * 100, reduction_rtf / 5 * 100);
  if (!bench::maybe_write_metrics(argc, argv, presets, matrix)) return 2;
  return bench::maybe_write_flex_trace(argc, argv, workload::kAllPresets[0], spec)
             ? 0
             : 2;
}
