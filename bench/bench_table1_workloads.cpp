// Table 1 reproduction: I/O characteristics of the five benchmark
// workloads (read:write ratio and I/O intensiveness), measured from the
// synthetic traces that stand in for Sysbench/Filebench.
#include <cstdio>

#include "src/sim/runner.hpp"
#include "src/util/parallel.hpp"
#include "src/util/table.hpp"
#include "src/workload/generator.hpp"

using namespace rps;

namespace {

std::string ratio_string(double read_fraction) {
  // Express as the paper does: small-integer read:write ratios.
  static constexpr struct {
    double fraction;
    const char* label;
  } kKnown[] = {{0.7, "7:3"},       {0.3, "3:7"}, {0.8, "4:1"},
                {0.5, "1:1"},       {1.0 / 3.0, "1:2"}};
  for (const auto& known : kKnown) {
    if (std::abs(read_fraction - known.fraction) < 0.03) return known.label;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f:%.2f", read_fraction,
                1.0 - read_fraction);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const Result<std::uint32_t> jobs = sim::parse_jobs_flag(argc, argv);
  if (!jobs.is_ok()) return 2;
  std::printf("Table 1: I/O characteristics of the five benchmark workloads\n");
  std::printf("(paper: OLTP 7:3 very high; NTRX 3:7 very high; Webserver 4:1\n");
  std::printf(" moderate; Varmail 1:1 high; Fileserver 1:2 high)\n\n");

  const Lpn working_set = static_cast<Lpn>(
      sim::bench_geometry().total_pages() * 0.8 * 0.8);

  // Trace generation per preset is independent; stats land in preset
  // order, so the table is identical at any --jobs value.
  const std::vector<workload::Preset> presets(std::begin(workload::kAllPresets),
                                              std::end(workload::kAllPresets));
  std::vector<workload::TraceStats> stats(presets.size());
  util::parallel_for_indexed(presets.size(), jobs.value(), [&](std::size_t p) {
    const workload::Trace trace = workload::generate(
        workload::preset_config(presets[p], working_set, 200'000, 1));
    stats[p] = trace.stats(/*idle_threshold_us=*/20'000);
  });

  TablePrinter table({"Workload", "Read:Write", "I/O intensiveness", "IOPS",
                      "Mean req pages", "Idle fraction"});
  for (std::size_t p = 0; p < presets.size(); ++p) {
    const workload::TraceStats& s = stats[p];
    const double mean_pages = static_cast<double>(s.read_pages + s.write_pages) /
                              static_cast<double>(s.requests);
    table.add_row({workload::to_string(presets[p]), ratio_string(s.read_fraction()),
                   s.intensiveness(), TablePrinter::fmt(s.iops(), 0),
                   TablePrinter::fmt(mean_pages, 2),
                   TablePrinter::fmt(s.idle_fraction, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
