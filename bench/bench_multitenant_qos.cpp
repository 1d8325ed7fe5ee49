// Multi-tenant QoS bench: arbitration policy vs an adversarial flood.
//
// N tenants share one device through the multi-queue frontend. Tenants
// 0..N-2 ("victims") are well-behaved open-loop Poisson sources of
// single-page requests; tenant N-1 is an adversarial write flood that
// wakes up mid-run and pours large multi-page writes into its queue far
// faster than the device can serve them. The same tenant set replays
// under each arbitration policy (RR, WRR, WDRR), and every victim also
// replays alone on a fresh device (its solo baseline).
//
// The quantity under test is the victims' pooled p99 completion latency
// (completion - arrival, so queueing delay is included; pooling all
// victims gives the percentile thousands of samples, making it stable
// across seeds). The shared admission budget is what the policies fight
// over: it holds one 8-page flood command plus two victim pages, so at
// every completion instant the arbiter decides whether freed pages go to
// waiting victim heads or back to the flood. Cost-blind RR hands the
// flood a whole command per cycle — 8x a victim's turn in pages — and
// interleaves it ahead of queued victim writes in the controller's FIFO;
// WDRR (page-granular deficits, one-page quantum) drains every waiting
// victim head first and lets the flood claim budget only when no victim
// is waiting. The acceptance bar (checked at exit): pooled victim p99
// under WDRR <= 2x the pooled solo p99, while plain RR exceeds it.
//
// Determinism: tenant traces come from build_tenant_traces (slot-per-
// index, derive_seed per tenant) and every cell is an independent
// single-threaded replay, so the final digest is bit-identical for any
// --jobs value. CI runs --jobs=1 and --jobs=2 and compares the digest
// line.
//
// Usage: bench_multitenant_qos [--quick] [--tenants=N] [--jobs=N]
//                              [--seed=N] [--out=PATH] [--trace=PATH]
//                              [--metrics=PATH]
//   --quick    smaller request counts (CI smoke)
//   --tenants  tenant count, clamped to [8, 1024] (default 16)
//   --jobs     parallelism across cells and trace generation (default 1)
//   --out      JSON path (default BENCH_multitenant_qos.json in the CWD)
//   --trace    write a Perfetto-loadable trace of the WDRR cell
//   --metrics  write an obs::MetricsReport of a dedicated WDRR re-run
//              (fresh device, so device totals == run delta), including
//              the per-tenant stream_programs breakdown and wear ledger
// A malformed numeric value prints the flag and exits 2.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/host/multi_queue.hpp"
#include "src/host/tenant.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/runner.hpp"
#include "src/util/parallel.hpp"

using namespace rps;

namespace {

/// Mid-size device: 4 x 2 chips, 96 blocks x 32 wordlines (64 MLC pages)
/// x 2 KB = 48k pages. Sized so the whole bench writes well under one
/// device fill — GC never runs, so the policy contrast is pure
/// arbitration, not GC interference. Small enough that the full
/// policy x solo matrix still finishes in seconds.
nand::Geometry qos_geometry() {
  nand::Geometry g;
  g.channels = 4;
  g.chips_per_channel = 2;
  g.blocks_per_chip = 96;
  g.wordlines_per_block = 32;
  g.page_size_bytes = 2048;
  return g;
}

struct BenchParams {
  std::uint32_t tenants = 16;
  /// Requests across ALL victims combined is held at victim_requests x 15
  /// regardless of --tenants (see make_tenants), so the run length and
  /// device fill are invariant under tenant-count scaling.
  std::uint64_t victim_requests = 800;
  Microseconds victim_interarrival_us = 5'000;
  /// Write-heavy victims: the victim tail is then dominated by program
  /// latency, the resource the flood actually contends for.
  double victim_read_fraction = 0.2;
  /// Enough flood commands that the flood stays backlogged from its start
  /// (1/3 into the run) until the last victim completes, under every
  /// policy — so the contended fraction of victim requests is the same
  /// across policies and seeds.
  std::uint64_t flood_requests = 2'600;
  /// Eight pages per flood command: cost-blind admission hands the flood
  /// 8x a victim's bandwidth per turn (one command saturates every chip
  /// of the 4x2 device for about one program time).
  std::uint32_t flood_pages = 8;
  Microseconds flood_interarrival_us = 100;
  /// NVMe-style shared controller admission budget (pages) — the scarce
  /// resource the arbiter allocates under saturation. One flood command
  /// plus two victim pages: a victim never queues behind more than one
  /// flood command inside the device, and whenever the budget binds it is
  /// the arbitration policy that decides who gets the freed pages.
  std::uint32_t shared_page_budget = 10;
  /// WDRR deficit grant per visit. One page = the victims' command size,
  /// so page-fairness is enforced at victim granularity: a victim's head
  /// always fits a fresh grant, while the flood must bank several visits
  /// per command and never claims budget while a victim head waits.
  std::uint32_t quantum_pages = 1;
  /// Controller write striping (on in every cell, including solo).
  bool stripe_writes = true;
  std::uint64_t seed = 1;
};

std::vector<host::TenantConfig> make_tenants(const BenchParams& p) {
  std::vector<host::TenantConfig> tenants;
  tenants.reserve(p.tenants);
  // Aggregate victim load stays constant as --tenants varies: the
  // per-victim interarrival stretches linearly with the victim count
  // (the default 15 victims at 4 ms each, ~3.75 req/ms aggregate), so
  // the device operating point — and the QoS contrast — survives scaling
  // from 8 to 64 tenants.
  const std::uint64_t victims = p.tenants - 1;
  const Microseconds victim_gap =
      std::max<Microseconds>(1, p.victim_interarrival_us * victims / 15);
  const std::uint64_t victim_requests =
      std::max<std::uint64_t>(50, p.victim_requests * 15 / victims);
  for (std::uint32_t i = 0; i + 1 < p.tenants; ++i) {
    host::TenantConfig t;
    t.id = i;
    t.read_fraction = p.victim_read_fraction;
    t.size_dist = {{1, 1.0}};
    t.mean_interarrival_us = victim_gap;
    t.requests = victim_requests;
    tenants.push_back(t);
  }
  // The adversary: saturating large sequential-ish writes, switched on
  // one third of the way into the victims' run.
  host::TenantConfig flood;
  flood.id = p.tenants - 1;
  flood.read_fraction = 0.0;
  flood.size_dist = {{p.flood_pages, 1.0}};
  flood.mean_interarrival_us = p.flood_interarrival_us;
  flood.start_us = p.victim_requests * p.victim_interarrival_us / 3;
  flood.requests = p.flood_requests;
  tenants.push_back(flood);
  return tenants;
}

std::unique_ptr<ftl::FtlBase> make_device() {
  ftl::FtlConfig config;
  config.geometry = qos_geometry();
  // The page-mapped baseline FTL: its in-order LSB/MSB programming makes
  // the solo write tail a stable ~tPROG_msb, so "p99 vs solo" measures
  // arbitration, not placement luck. (flexFTL serves a lone tenant almost
  // entirely from fast LSB pages, which deflates the solo baseline and
  // would make any contended ratio look catastrophic.)
  return sim::make_ftl(sim::FtlKind::kPage, config);
}

/// One multi-tenant replay of the full tenant set under `policy`. With
/// `keep_device` non-null the freshly built FTL is handed back to the
/// caller after the run (--metrics reads its attribution + wear ledger;
/// a fresh device means totals == the run's delta).
host::MultiQueueResult run_policy_cell(const BenchParams& params,
                                       const std::vector<host::TenantConfig>& tenants,
                                       const std::vector<workload::Trace>& traces,
                                       ctrl::ArbPolicy policy,
                                       obs::TraceSink* sink = nullptr,
                                       std::unique_ptr<ftl::FtlBase>* keep_device = nullptr) {
  std::unique_ptr<ftl::FtlBase> ftl = make_device();
  host::MultiQueueConfig mq;
  mq.arbiter.policy = policy;
  mq.arbiter.quantum_pages = params.quantum_pages;
  mq.shared_page_budget = params.shared_page_budget;
  mq.stripe_writes = params.stripe_writes;
  host::MultiQueueFrontend frontend(*ftl, mq);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    frontend.add_tenant(tenants[i], traces[i]);
  }
  if (sink != nullptr) frontend.set_observability(sink, nullptr);
  host::MultiQueueResult result = frontend.run();
  if (keep_device != nullptr) *keep_device = std::move(ftl);
  return result;
}

/// Victim `id` alone on a fresh device: the same trace, no contention.
host::MultiQueueResult run_solo_cell(const BenchParams& params,
                                     const host::TenantConfig& victim,
                                     const workload::Trace& trace) {
  std::unique_ptr<ftl::FtlBase> ftl = make_device();
  host::MultiQueueConfig mq;
  mq.shared_page_budget = params.shared_page_budget;
  mq.stripe_writes = params.stripe_writes;
  host::MultiQueueFrontend frontend(*ftl, mq);
  host::TenantConfig solo = victim;
  solo.id = 0;  // single queue; stream falls back to the default slot
  solo.stream = 0;
  frontend.add_tenant(solo, trace);
  return frontend.run();
}

std::uint64_t mix_digest(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct PolicySummary {
  ctrl::ArbPolicy policy = ctrl::ArbPolicy::kRoundRobin;
  /// All victims' completions pooled into one histogram — thousands of
  /// samples, so the p99 (and the acceptance ratio built on it) is stable
  /// across seeds, unlike any single victim's 99th percentile.
  std::uint64_t victim_p50 = 0;
  std::uint64_t victim_p99 = 0;
  double ratio_vs_solo = 0.0;  // pooled victim p99 / pooled solo p99
  std::uint64_t flood_p99 = 0;
};

PolicySummary summarize(const host::MultiQueueResult& result,
                        std::uint64_t solo_pooled_p99, ctrl::ArbPolicy policy) {
  PolicySummary s;
  s.policy = policy;
  obs::LatencyHistogram pooled;
  for (std::size_t i = 0; i + 1 < result.tenants.size(); ++i) {
    pooled.merge(result.tenants[i].latency_us);
  }
  s.victim_p50 = pooled.p50();
  s.victim_p99 = pooled.p99();
  s.ratio_vs_solo = solo_pooled_p99 > 0
                        ? static_cast<double>(s.victim_p99) /
                              static_cast<double>(solo_pooled_p99)
                        : 0.0;
  s.flood_p99 = result.tenants.back().latency_us.p99();
  return s;
}

void write_json(const std::string& path, const BenchParams& params, bool quick,
                const std::vector<ctrl::ArbPolicy>& policies,
                const std::vector<host::MultiQueueResult>& policy_results,
                const std::vector<PolicySummary>& summaries,
                const std::vector<std::uint64_t>& solo_p50,
                const std::vector<std::uint64_t>& solo_p99, std::uint64_t digest) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"multitenant_qos\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"tenants\": %u,\n", params.tenants);
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(params.seed));
  std::fprintf(out, "  \"digest\": \"%016llx\",\n",
               static_cast<unsigned long long>(digest));
  std::fprintf(out, "  \"solo\": [\n");
  for (std::size_t i = 0; i < solo_p99.size(); ++i) {
    std::fprintf(out, "    {\"tenant\": %zu, \"p50\": %llu, \"p99\": %llu}%s\n", i,
                 static_cast<unsigned long long>(solo_p50[i]),
                 static_cast<unsigned long long>(solo_p99[i]),
                 i + 1 < solo_p99.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"policies\": [\n");
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const host::MultiQueueResult& r = policy_results[p];
    const PolicySummary& s = summaries[p];
    std::fprintf(out, "    {\"policy\": \"%s\",\n", ctrl::to_string(policies[p]));
    std::fprintf(out, "     \"victim_p50\": %llu,\n",
                 static_cast<unsigned long long>(s.victim_p50));
    std::fprintf(out, "     \"victim_p99\": %llu,\n",
                 static_cast<unsigned long long>(s.victim_p99));
    std::fprintf(out, "     \"ratio_vs_solo\": %.3f,\n", s.ratio_vs_solo);
    std::fprintf(out, "     \"flood_p99\": %llu,\n",
                 static_cast<unsigned long long>(s.flood_p99));
    std::fprintf(out, "     \"tenants\": [\n");
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const host::TenantResult& t = r.tenants[i];
      std::fprintf(out,
                   "       {\"tenant\": %zu, \"completed\": %llu, \"p50\": %llu, "
                   "\"p99\": %llu, \"histogram\": %s}%s\n",
                   i, static_cast<unsigned long long>(t.completed),
                   static_cast<unsigned long long>(t.latency_us.p50()),
                   static_cast<unsigned long long>(t.latency_us.p99()),
                   t.latency_us.to_json().c_str(),
                   i + 1 < r.tenants.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", p + 1 < policies.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t jobs = 1;
  std::uint32_t tenants = 16;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_multitenant_qos.json";
  std::string trace_path;
  std::string metrics_path;
  BenchParams params;
  // Numeric flags go through Result-returning parsers: a malformed value
  // prints the flag (the parser does) and exits 2.
  bool malformed = false;
  const auto take = [&malformed](auto& into, const auto& parsed) {
    if (parsed.is_ok()) {
      into = static_cast<std::remove_reference_t<decltype(into)>>(parsed.value());
    } else {
      malformed = true;
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      take(jobs, sim::parse_count_value("--jobs", arg.substr(7), UINT32_MAX));
    } else if (arg.rfind("--tenants=", 0) == 0) {
      take(tenants, sim::parse_count_value("--tenants", arg.substr(10), UINT32_MAX));
    } else if (arg.rfind("--seed=", 0) == 0) {
      take(seed, sim::parse_uint_value("--seed", arg.substr(7)));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--budget=", 0) == 0) {
      // Undocumented tuning knobs (kept for experiments/regeneration).
      take(params.shared_page_budget,
           sim::parse_uint_value("--budget", arg.substr(9), UINT32_MAX));
    } else if (arg.rfind("--quantum=", 0) == 0) {
      take(params.quantum_pages,
           sim::parse_count_value("--quantum", arg.substr(10), UINT32_MAX));
    } else if (arg.rfind("--flood-pages=", 0) == 0) {
      take(params.flood_pages,
           sim::parse_count_value("--flood-pages", arg.substr(14), UINT32_MAX));
    } else if (arg.rfind("--victim-gap=", 0) == 0) {
      take(params.victim_interarrival_us,
           sim::parse_count_value("--victim-gap", arg.substr(13), INT64_MAX));
    } else if (arg.rfind("--victim-rf=", 0) == 0) {
      take(params.victim_read_fraction,
           sim::parse_fraction_value("--victim-rf", arg.substr(12)));
    } else if (arg.rfind("--stripe=", 0) == 0) {
      take(params.stripe_writes, sim::parse_switch_value("--stripe", arg.substr(9)));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (malformed) return 2;

  // The O(active) arbiter and incremental frontend eligibility keep
  // admission cost tied to backlogged tenants, so the frontend scales to
  // four-digit tenant counts (aggregate victim load is invariant under
  // --tenants; see make_tenants).
  params.tenants = std::clamp(tenants, 8u, 1024u);
  params.seed = seed;
  if (quick) {
    params.victim_requests = 400;
    params.flood_requests = 1'300;
  }

  const std::vector<host::TenantConfig> tenant_configs = make_tenants(params);
  const Lpn exported = make_device()->exported_pages();
  const std::vector<workload::Trace> traces =
      host::build_tenant_traces(tenant_configs, exported, params.seed, jobs);

  // Cells: one per policy, one solo run per victim. All independent —
  // run them `jobs`-wide with slot-per-index results.
  const std::vector<ctrl::ArbPolicy> policies = {
      ctrl::ArbPolicy::kRoundRobin, ctrl::ArbPolicy::kWeightedRoundRobin,
      ctrl::ArbPolicy::kWeightedDeficitRoundRobin};
  const std::size_t victims = params.tenants - 1;
  std::vector<host::MultiQueueResult> policy_results(policies.size());
  std::vector<host::MultiQueueResult> solo_results(victims);
  util::ThreadPool pool(jobs);
  pool.parallel_for_indexed(policies.size() + victims, [&](std::size_t i) {
    if (i < policies.size()) {
      policy_results[i] = run_policy_cell(params, tenant_configs, traces, policies[i]);
    } else {
      const std::size_t v = i - policies.size();
      solo_results[v] = run_solo_cell(params, tenant_configs[v], traces[v]);
    }
  });

  std::vector<std::uint64_t> solo_p50(victims), solo_p99(victims);
  obs::LatencyHistogram solo_pooled;
  for (std::size_t v = 0; v < victims; ++v) {
    solo_p50[v] = solo_results[v].tenants[0].latency_us.p50();
    solo_p99[v] = solo_results[v].tenants[0].latency_us.p99();
    solo_pooled.merge(solo_results[v].tenants[0].latency_us);
  }
  const std::uint64_t solo_pooled_p99 = solo_pooled.p99();

  // Order-sensitive digest over every cell: bit-identical across --jobs.
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const host::MultiQueueResult& r : policy_results) {
    digest = mix_digest(digest, r.digest());
  }
  for (const host::MultiQueueResult& r : solo_results) {
    digest = mix_digest(digest, r.digest());
  }

  std::printf(
      "bench_multitenant_qos%s: %u tenants (%zu victims + 1 write flood), "
      "seed %llu\n",
      quick ? " --quick" : "", params.tenants, victims,
      static_cast<unsigned long long>(params.seed));
  std::printf("  solo victim p99 (all victims pooled): %llu us\n",
              static_cast<unsigned long long>(solo_pooled_p99));
  std::printf("  %-6s %14s %16s %12s %14s\n", "policy", "victim p50", "victim p99",
              "p99/solo", "flood p99");
  std::vector<PolicySummary> summaries;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    summaries.push_back(summarize(policy_results[p], solo_pooled_p99, policies[p]));
    const PolicySummary& s = summaries.back();
    std::printf("  %-6s %11llu us %13llu us %11.2fx %11llu us\n",
                ctrl::to_string(policies[p]),
                static_cast<unsigned long long>(s.victim_p50),
                static_cast<unsigned long long>(s.victim_p99),
                s.ratio_vs_solo,
                static_cast<unsigned long long>(s.flood_p99));
  }
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(digest));

  if (!trace_path.empty()) {
    // Re-run the WDRR cell with a trace sink; the replay is deterministic,
    // so the traced run matches the measured one.
    obs::TraceSink sink;
    run_policy_cell(params, tenant_configs, traces,
                    ctrl::ArbPolicy::kWeightedDeficitRoundRobin, &sink);
    if (sink.write_chrome_json(trace_path)) {
      std::printf("wrote %s (%zu events)\n", trace_path.c_str(), sink.size());
    }
  }

  write_json(out_path, params, quick, policies, policy_results, summaries,
             solo_p50, solo_p99, digest);

  if (!metrics_path.empty()) {
    // Dedicated WDRR re-run on a fresh device: the replay is deterministic
    // (same traces, single-threaded), and the fresh device makes the
    // attribution totals exactly the run's own delta. The per-tenant
    // program breakdown is the stream_programs array — every tenant's
    // commands carry its stream tag (slot-per-tenant up to 32, then the
    // shared overflow slot).
    std::unique_ptr<ftl::FtlBase> device;
    const host::MultiQueueResult wdrr_rerun =
        run_policy_cell(params, tenant_configs, traces,
                        ctrl::ArbPolicy::kWeightedDeficitRoundRobin,
                        /*sink=*/nullptr, &device);
    const PolicySummary wdrr_summary =
        summarize(wdrr_rerun, solo_pooled_p99, ctrl::ArbPolicy::kWeightedDeficitRoundRobin);
    obs::MetricsReport report;
    report.begin("wdrr");
    report.add_u64("tenants", params.tenants);
    report.add_u64("seed", params.seed);
    report.add_u64("victim_p50_us", wdrr_summary.victim_p50);
    report.add_u64("victim_p99_us", wdrr_summary.victim_p99);
    report.add_f64("ratio_vs_solo", wdrr_summary.ratio_vs_solo);
    report.add_u64("flood_p99_us", wdrr_summary.flood_p99);
    report.add_attribution(device->device().attribution());
    report.add_wear(obs::collect_wear(device->device()));
    report.end();
    if (!report.write_file(metrics_path)) {
      std::fprintf(stderr, "failed to write metrics report at: %s\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }

  // Acceptance: WDRR bounds the victims' tails, cost-blind RR does not.
  const PolicySummary& rr = summaries.front();
  const PolicySummary& wdrr = summaries.back();
  const bool wdrr_bounded = wdrr.ratio_vs_solo <= 2.0;
  const bool rr_exceeds = rr.ratio_vs_solo > 2.0;
  std::printf("acceptance: wdrr victim p99 %.2fx solo (need <= 2.0x) %s, "
              "rr victim p99 %.2fx solo (need > 2.0x) %s\n",
              wdrr.ratio_vs_solo, wdrr_bounded ? "OK" : "FAIL",
              rr.ratio_vs_solo, rr_exceeds ? "OK" : "FAIL");
  return wdrr_bounded && rr_exceeds ? 0 : 1;
}
