// Extension of Fig. 8: request-latency distributions across the four FTLs
// and five workloads. The paper reports IOPS and bandwidth; tail latency
// is where the paired-page backup cost and the LSB/MSB asymmetry are most
// visible to an application.
//
// Flags: --requests=N overrides the request count (CI smoke runs);
// --trace=PATH additionally runs one traced flexFTL experiment on the
// first preset and writes Chrome trace JSON + state CSV (see
// bench_fig8_common.hpp).
#include <cstdio>

#include "bench/bench_fig8_common.hpp"
#include "src/util/table.hpp"

using namespace rps;

int main(int argc, char** argv) {
  sim::ExperimentSpec spec = bench::fig8_spec();
  const Result<std::uint64_t> requests = sim::parse_requests_flag(argc, argv, 150'000);
  if (!requests.is_ok()) return 2;
  spec.requests = requests.value();
  if (!bench::apply_geometry_flag(argc, argv, spec)) return 2;
  std::printf("Latency profile: per-request latency percentiles (us)\n\n");

  // Precondition each FTL once and fork every preset cell from the
  // snapshot — the fill never sees the preset, so the 5 x 4 matrix pays
  // for 4 preconditions instead of 20 and stays bit-identical.
  std::vector<sim::Snapshot> warm(std::size(sim::kAllFtls));
  for (std::size_t f = 0; f < warm.size(); ++f) {
    warm[f] = sim::make_precondition_snapshot(sim::kAllFtls[f], spec);
  }

  for (const workload::Preset preset : workload::kAllPresets) {
    TablePrinter table({"FTL", "p50", "p90", "p99", "p99.9", "max"});
    for (std::size_t f = 0; f < std::size(sim::kAllFtls); ++f) {
      const sim::FtlKind kind = sim::kAllFtls[f];
      const sim::SimResult r =
          run_experiment(kind, preset, spec, nullptr, nullptr, &warm[f]);
      // Quantiles come from the mergeable histogram (bucket upper bounds,
      // <0.8% relative error) rather than the raw sample sort — identical
      // numbers to what any sharded/merged run of the same spec reports.
      const obs::LatencyHistogram& h = r.latency_hist_us;
      table.add_row({r.ftl_name,
                     TablePrinter::fmt(static_cast<double>(h.percentile(50)), 0),
                     TablePrinter::fmt(static_cast<double>(h.percentile(90)), 0),
                     TablePrinter::fmt(static_cast<double>(h.percentile(99)), 0),
                     TablePrinter::fmt(static_cast<double>(h.percentile(99.9)), 0),
                     TablePrinter::fmt(static_cast<double>(h.max()), 0)});
      std::fflush(stdout);
    }
    std::printf("%s:\n%s\n", workload::to_string(preset), table.to_string().c_str());
  }
  return bench::maybe_write_flex_trace(argc, argv, workload::kAllPresets[0], spec)
             ? 0
             : 2;
}
