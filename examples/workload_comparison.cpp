// Run all four FTLs of the paper's evaluation on one workload and compare
// them — a miniature of the Fig. 8 experiments that finishes in a couple
// of seconds.
//
//   $ ./workload_comparison            # Varmail (default)
//   $ ./workload_comparison oltp       # or: ntrx, webserver, varmail, fileserver
#include <cstdio>
#include <cstring>
#include <string>

#include "src/sim/runner.hpp"
#include "src/util/table.hpp"

using namespace rps;

int main(int argc, char** argv) {
  workload::Preset preset = workload::Preset::kVarmail;
  if (argc > 1) {
    for (const workload::Preset p : workload::kAllPresets) {
      if (strcasecmp(argv[1], workload::to_string(p)) == 0) preset = p;
    }
  }

  sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  spec.ftl_config.geometry.blocks_per_chip = 64;  // quicker than the benches
  spec.requests = 60'000;

  std::printf("Workload: %s (%llu requests, %u chips, %u blocks/chip)\n\n",
              workload::to_string(preset),
              static_cast<unsigned long long>(spec.requests),
              spec.ftl_config.geometry.num_chips(),
              spec.ftl_config.geometry.blocks_per_chip);

  TablePrinter table({"FTL", "IOPS", "p50 lat (us)", "p99 lat (us)", "WAF",
                      "erases", "LSB share", "backup pages"});
  for (const sim::FtlKind kind : sim::kAllFtls) {
    const sim::SimResult r = run_experiment(kind, preset, spec);
    const double lsb_share =
        static_cast<double>(r.ftl_stats.host_lsb_writes) /
        static_cast<double>(r.ftl_stats.host_lsb_writes + r.ftl_stats.host_msb_writes);
    table.add_row({r.ftl_name, TablePrinter::fmt(r.iops_makespan(), 0),
                   std::to_string(r.latency_hist_us.p50()),
                   std::to_string(r.latency_hist_us.p99()),
                   TablePrinter::fmt(r.waf(), 2),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(r.erases)),
                   TablePrinter::fmt(lsb_share, 2),
                   TablePrinter::fmt_int(static_cast<std::int64_t>(r.ftl_stats.backup_pages))});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("LSB share: fraction of host writes served by fast (500 us) pages.\n");
  std::printf("flexFTL leans on LSB pages under bursts and repays MSB pages in idle.\n");
  return 0;
}
