// Trace tooling: generate a workload trace, save it to a file, load it
// back, and replay it against any of the four FTLs — the workflow for
// running your own traces through the simulator.
//
//   $ ./trace_replay                          # demo: generate+replay Varmail
//   $ ./trace_replay my.trace flexFTL         # replay a trace file
//
// Trace file format (plain text): one "<arrival_us> <R|W> <lpn> <pages>"
// line per request; '#'-prefixed lines are comments.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/sim/runner.hpp"
#include "src/util/table.hpp"

using namespace rps;

int main(int argc, char** argv) {
  sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  spec.ftl_config.geometry.blocks_per_chip = 64;

  std::string path = "/tmp/flexnand_demo.trace";
  sim::FtlKind kind = sim::FtlKind::kFlex;
  if (argc > 1) path = argv[1];
  if (argc > 2) {
    for (const sim::FtlKind k : sim::kAllFtls) {
      if (strcasecmp(argv[2], sim::to_string(k)) == 0) kind = k;
    }
  }

  if (argc <= 1) {
    // Demo mode: synthesize a Varmail trace and save it first.
    auto ftl_for_sizing = sim::make_ftl(kind, spec.ftl_config);
    const Lpn working_set =
        static_cast<Lpn>(ftl_for_sizing->exported_pages() * 0.8);
    const workload::Trace generated = workload::generate(
        workload::preset_config(workload::Preset::kVarmail, working_set, 30'000, 1));
    if (!generated.save(path).is_ok()) {
      std::printf("cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("generated %zu-request Varmail trace -> %s\n", generated.size(),
                path.c_str());
  }

  Result<workload::Trace> loaded = workload::Trace::load(path);
  if (!loaded.is_ok()) {
    std::printf("cannot load %s: %s\n", path.c_str(),
                std::string(to_string(loaded.code())).c_str());
    return 1;
  }
  const workload::Trace& trace = loaded.value();
  const workload::TraceStats stats = trace.stats();
  std::printf("loaded %zu requests (R:W %.2f:%.2f, %s intensiveness)\n",
              trace.size(), stats.read_fraction(), 1 - stats.read_fraction(),
              stats.intensiveness().c_str());

  auto ftl = sim::make_ftl(kind, spec.ftl_config);
  if (trace.lpn_span() > ftl->exported_pages()) {
    std::printf("trace touches %llu pages but the device exports %llu\n",
                static_cast<unsigned long long>(trace.lpn_span()),
                static_cast<unsigned long long>(ftl->exported_pages()));
    return 1;
  }
  sim::Simulator simulator(*ftl, spec.sim);
  std::printf("preconditioning %s...\n", std::string(ftl->name()).c_str());
  simulator.precondition();
  const sim::SimResult r = simulator.run(trace);

  TablePrinter table({"metric", "value"});
  table.add_row({"FTL", r.ftl_name});
  table.add_row({"IOPS (makespan)", TablePrinter::fmt(r.iops_makespan(), 0)});
  table.add_row({"p50 latency (us)", std::to_string(r.latency_hist_us.p50())});
  table.add_row({"p99 latency (us)", std::to_string(r.latency_hist_us.p99())});
  table.add_row({"write amplification", TablePrinter::fmt(r.waf(), 2)});
  table.add_row({"block erasures", TablePrinter::fmt_int(static_cast<std::int64_t>(r.erases))});
  table.add_row({"peak write MB/s",
                 r.write_bw_kbps.empty()
                     ? "-"
                     : TablePrinter::fmt(
                           static_cast<double>(r.write_bw_kbps.percentile(99.5)) / 1000.0,
                           1)});
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}
