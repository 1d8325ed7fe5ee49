#include "src/faultsim/harness.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <sstream>

#include "src/controller/controller.hpp"
#include "src/host/multi_queue.hpp"
#include "src/obs/trace.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::faultsim {

ftl::FtlConfig FaultSimConfig::small_config() {
  ftl::FtlConfig c = ftl::FtlConfig::tiny();
  // Keep the tiny 2-channel x 2-chip array (striping and per-chip queues
  // stay exercised) but deepen the blocks so a fast block holds enough LSB
  // pages for the parity-flush window to be hittable by a sweep.
  c.geometry.wordlines_per_block = 8;
  return c;
}

std::optional<sim::FtlKind> ftl_kind_from(const std::string& name) {
  for (const sim::FtlKind kind :
       {sim::FtlKind::kPage, sim::FtlKind::kParity, sim::FtlKind::kRtf,
        sim::FtlKind::kFlex, sim::FtlKind::kSlc}) {
    if (name == sim::to_string(kind)) return kind;
  }
  return std::nullopt;
}

namespace {

/// One generated host request of the main phase.
struct GenRequest {
  bool write = true;
  Lpn lpn = 0;
  std::uint32_t pages = 1;
  double utilization = 0.0;
  Microseconds arrival = 0;
};

/// The whole main-phase request stream, precomputed so every crash point
/// consumes the identical seeded sequence.
std::vector<GenRequest> generate_workload(const FaultSimConfig& config,
                                          Lpn working_set, Microseconds start) {
  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  std::vector<GenRequest> reqs;
  reqs.reserve(config.requests);
  Microseconds now = start;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    GenRequest r;
    now += static_cast<Microseconds>(rng.next_below(
        2 * static_cast<std::uint64_t>(config.mean_gap_us) + 1));
    r.arrival = now;
    r.pages = 1 + static_cast<std::uint32_t>(
                      rng.next_below(std::max<std::uint32_t>(1, config.max_pages_per_request)));
    r.pages = static_cast<std::uint32_t>(
        std::min<Lpn>(r.pages, working_set));
    r.lpn = rng.next_below(working_set - r.pages + 1);
    r.write = !rng.chance(config.read_fraction);
    // Alternate burst-like and lull-like buffer pressure so flexFTL's
    // policy serves both LSB and MSB phases (both crash hazards live).
    r.utilization = rng.chance(0.5) ? 0.95 : 0.02;
    reqs.push_back(r);
  }
  return reqs;
}

/// Tenant set for a multi-tenant trial: the seeded workload knobs mapped
/// onto per-tenant open-loop sources. Even ids arrive Poisson, odd ids
/// bursty on/off — the bursty OFF periods are what opens idle windows
/// (background GC/scrub) in the middle of a crash sweep. Interarrival
/// scales with the tenant count so the aggregate load matches the
/// single-stream trial's.
std::vector<host::TenantConfig> make_tenants(const FaultSimConfig& config,
                                             std::uint32_t tenants,
                                             Microseconds start) {
  workload::SizeDistribution dist{{1, 0.6}};
  if (config.max_pages_per_request >= 2) dist.push_back({2, 0.3});
  if (config.max_pages_per_request >= 4) dist.push_back({4, 0.1});
  std::vector<host::TenantConfig> out(tenants);
  for (std::uint32_t i = 0; i < tenants; ++i) {
    host::TenantConfig& t = out[i];
    t.id = i;
    t.arrival = (i % 2 == 0) ? workload::ArrivalProcess::kPoisson
                             : workload::ArrivalProcess::kBurstyOnOff;
    t.read_fraction = config.read_fraction;
    t.size_dist = dist;
    t.mean_interarrival_us = config.mean_gap_us * tenants;
    t.on_mean_us = 20 * config.mean_gap_us;
    t.off_mean_us = 50 * config.mean_gap_us;
    t.start_us = start;
    t.requests = std::max<std::uint64_t>(1, config.requests / tenants);
  }
  return out;
}

}  // namespace

std::uint64_t WarmStart::digest() const {
  return ser::fnv1a(oracle.data(), oracle.size(), ftl.digest());
}

namespace {
constexpr std::uint64_t kWarmStartMagic = 0x314d524157535052ull;  // "RPSWARM1"
}  // namespace

bool WarmStart::save_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = ser::encode([&](ser::Writer& w) {
    w.u64(kWarmStartMagic);
    w.u64(ftl.bytes().size());
    const std::uint64_t ftl_digest = ftl.write_sealed(w);
    w.u64(oracle.size());
    w.bytes(oracle.data(), oracle.size());
    w.u64(ser::fnv1a(oracle.data(), oracle.size(), ftl_digest));  // digest()
  });
  return ser::write_file(path, bytes);
}

std::optional<WarmStart> WarmStart::load_file(const std::string& path) {
  const std::optional<std::vector<std::uint8_t>> bytes = ser::read_file(path);
  if (!bytes) return std::nullopt;
  ser::Reader r(*bytes);
  if (r.u64() != kWarmStartMagic) return std::nullopt;
  WarmStart warm;
  const std::uint64_t snap_size = r.u64();
  if (snap_size > r.remaining()) return std::nullopt;
  std::vector<std::uint8_t> snap(static_cast<std::size_t>(snap_size));
  r.bytes(snap.data(), snap.size());
  warm.ftl = sim::Snapshot::from_bytes(std::move(snap));
  const std::uint64_t oracle_size = r.u64();
  if (oracle_size > r.remaining()) return std::nullopt;
  warm.oracle.resize(static_cast<std::size_t>(oracle_size));
  r.bytes(warm.oracle.data(), warm.oracle.size());
  const std::uint64_t digest = r.u64();
  if (!r.ok() || !r.at_end() || digest != warm.digest() || !warm.ftl.valid()) {
    return std::nullopt;
  }
  return warm;
}

namespace {

/// The seed-independent fill phase: one pass over the working set through
/// the synchronous path while the device is idle. Everything here is
/// durable long before any crash point (crash points come from main-phase
/// completions). Ends with the oracle's epoch mark — exactly the fork
/// point WarmStart captures.
void run_fill_phase(ftl::FtlBase& ftl, ShadowOracle& oracle, Lpn working_set) {
  for (Lpn lpn = 0; lpn < working_set; ++lpn) {
    const Result<ftl::HostOp> op = ftl.write(lpn, ftl.device().all_idle_at(), 0.5);
    if (op.is_ok()) oracle.ack_latest(lpn, op.value().complete);
  }
  oracle.mark_epoch();
}

Lpn fill_working_set(const ftl::FtlBase& ftl, const FaultSimConfig& config) {
  return std::max<Lpn>(
      1, static_cast<Lpn>(static_cast<double>(ftl.exported_pages()) *
                          config.working_set_fraction));
}

}  // namespace

WarmStart make_warm_start(const FaultSimConfig& config) {
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(config.kind, config.ftl_config);
  ShadowOracle oracle;
  oracle.attach(*ftl);
  run_fill_phase(*ftl, oracle, fill_working_set(*ftl, config));
  oracle.detach();
  WarmStart warm;
  warm.ftl = sim::Snapshot::capture(*ftl);
  warm.oracle = ser::encode([&oracle](ser::Writer& w) { oracle.save(w); });
  return warm;
}

TrialResult run_trial(const FaultSimConfig& config, obs::TraceSink* sink,
                      const WarmStart* warm) {
  TrialResult out;
  CrashReport& report = out.report;
  report.crash_time_us = config.crash_time_us;
  const Microseconds crash = config.crash_time_us;

  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(config.kind, config.ftl_config);
  ShadowOracle oracle;
  oracle.attach(*ftl);

  const Lpn working_set = fill_working_set(*ftl, config);
  if (warm != nullptr) {
    // Fork from the shared post-fill snapshot instead of re-filling: the
    // restored device, mapping and oracle history are bit-identical to
    // what the fill loop below would produce.
    const bool restored = warm->ftl.restore(*ftl);
    assert(restored);
    (void)restored;
    ser::Reader r(warm->oracle);
    oracle.load(r);
    assert(r.ok() && r.at_end());
  } else {
    run_fill_phase(*ftl, oracle, working_set);
  }
  // Trace the main phase only: fill-phase writes are setup, not behaviour
  // under test.
  if (sink != nullptr) {
    sink->set_planes(ftl->device().geometry().planes_per_chip);
  }
  ftl->set_trace_sink(sink);

  const Microseconds start = ftl->device().all_idle_at() + 1'000;
  const std::vector<GenRequest> reqs = generate_workload(config, working_set, start);

  std::vector<nand::PowerLossVictim> victims;
  std::vector<Microseconds> completes;

  if (config.tenants > 1) {
    // Multi-tenant frontend path: per-tenant open-loop queues over
    // disjoint partitions of the (pre-filled) working set, arbitrated
    // admission, per-tenant write streams. A crash lands mid-arbitration.
    const auto tenant_count = static_cast<std::uint32_t>(
        std::min<Lpn>(config.tenants, working_set));
    host::MultiQueueConfig mq;
    mq.arbiter.policy = config.arb;
    mq.keep_op_log = true;
    host::MultiQueueFrontend frontend(*ftl, mq);
    for (const host::TenantConfig& t :
         make_tenants(config, tenant_count, start)) {
      frontend.add_tenant(
          t, host::tenant_trace(
                 t, host::tenant_partition(t.id, tenant_count, working_set),
                 config.seed));
    }
    frontend.set_observability(sink, nullptr);
    host::MultiQueueResult mres = frontend.run(crash);
    if (crash != kTimeNever) {
      report.crashed = true;
      ctrl::PowerLossOutcome outcome = frontend.power_loss(crash, mres);
      victims = std::move(outcome.victims);
      report.victims = victims.size();
      report.cancelled_write_ops = outcome.cancelled_write_ops;
      report.cancelled_read_ops = outcome.cancelled_read_ops;
      report.aborted_commands = outcome.aborted_commands;
    }
    for (const host::TenantResult& t : mres.tenants) {
      report.requests_issued += t.submitted;
    }
    oracle.finalize_from_op_log(frontend.controller().op_log());
    for (const ctrl::OpRecord& rec : frontend.controller().op_log()) {
      if (rec.ok && rec.complete < crash) completes.push_back(rec.complete);
    }
  } else {
    ctrl::Controller controller(
        *ftl, ctrl::ControllerConfig{.stripe_writes = true, .keep_op_log = true});
    controller.set_observability(sink, nullptr);
    for (const GenRequest& r : reqs) {
      if (r.arrival >= crash) break;
      ctrl::HostCommand cmd;
      cmd.kind = r.write ? ctrl::CmdKind::kWrite : ctrl::CmdKind::kRead;
      cmd.lpn = r.lpn;
      cmd.page_count = r.pages;
      cmd.issue = r.arrival;
      cmd.buffer_utilization = r.utilization;
      controller.submit(cmd);
      controller.drain(r.arrival);
      ++report.requests_issued;
    }
    if (crash != kTimeNever) {
      report.crashed = true;
      ctrl::PowerLossOutcome outcome = controller.power_loss(crash);
      victims = std::move(outcome.victims);
      report.victims = victims.size();
      report.cancelled_write_ops = outcome.cancelled_write_ops;
      report.cancelled_read_ops = outcome.cancelled_read_ops;
      report.aborted_commands = outcome.aborted_commands;
    } else {
      controller.drain();
    }
    oracle.finalize_from_op_log(controller.op_log());
    for (const ctrl::OpRecord& rec : controller.op_log()) {
      if (rec.ok && rec.complete < crash) completes.push_back(rec.complete);
    }
  }

  std::sort(completes.begin(), completes.end());
  completes.erase(std::unique(completes.begin(), completes.end()), completes.end());
  out.boundaries = std::move(completes);

  if (report.crashed && sink != nullptr) {
    sink->record(obs::EventKind::kPowerLossCut, 0, crash, -1, victims.size());
  }
  if (report.crashed) {
    // Reboot at the instant of the cut; recovery work is charged from
    // there (the device timelines were capped to the crash time).
    const sim::RebootOutcome reboot =
        sim::crash_reboot(config.kind, *ftl, victims, crash, sink);
    report.recovery_supported = reboot.recovery_supported;
    report.recovery = reboot.report;
  }

  const Microseconds check_at = std::max(ftl->device().all_idle_at(),
                                         report.crashed ? crash : Microseconds{0});
  report.oracle = oracle.check(*ftl, crash, check_at);
  report.unaccounted_loss = report.oracle.lost > report.recovery.pages_lost
                                ? report.oracle.lost - report.recovery.pages_lost
                                : 0;
  // Verdict: an FTL with a real recovery procedure must leave no stale
  // reads and no losses it did not explicitly report. FTLs without one
  // (recovery_supported == false) lose destroyed pages by design — the
  // oracle still counts them, but they are not violations.
  report.violations =
      report.recovery_supported ? report.oracle.stale + report.unaccounted_loss : 0;
  if (config.tenants > 1) {
    // Stream-tag audit: every readable mapped page must carry either tag
    // 0 (default stream, fill-phase data, or an OOB hint recovery could
    // not reconstruct) or the stream of its partition's owner. A nonzero
    // tag naming a different tenant means the frontend/allocator routed
    // one tenant's data through another's stream — a violation whether or
    // not the trial crashed.
    const auto tenant_count = static_cast<std::uint32_t>(
        std::min<Lpn>(config.tenants, working_set));
    for (Lpn lpn = 0; lpn < working_set; ++lpn) {
      const Result<nand::PageImage> data = ftl->read_data(lpn, check_at);
      if (!data.is_ok()) continue;  // destroyed data: the oracle's department
      if ((data.value().record.spare & nand::kNonHostSpareFlag) != 0) continue;
      const std::uint32_t tag = nand::stream_of_spare(data.value().record.spare);
      if (tag == 0) continue;
      const std::uint32_t owner =
          host::tenant_of_lpn(lpn, tenant_count, working_set);
      if (tag != owner) ++report.stream_tag_mismatches;
    }
    report.violations += report.stream_tag_mismatches;
  }
  report.consistent = ftl->check_consistency();
  out.attribution = ftl->device().attribution();
  out.wear = obs::collect_wear(ftl->device());
  ftl->set_trace_sink(nullptr);
  oracle.detach();
  return out;
}

namespace {

/// A fraction in [0, 1] as the shortest fixed-notation decimal that reads
/// back to the same double (0.5 prints "0.5"). An ostream would switch to
/// exponent notation below 1e-4, which the reproducer parser rejects, and
/// round to six digits, which replays a different value.
std::string fraction(double value) {
  // Room for the longest: a subnormal's 324 fraction digits.
  std::array<char, 352> buf{};
  const std::to_chars_result out =
      std::to_chars(buf.data(), buf.data() + buf.size(), value, std::chars_format::fixed);
  assert(out.ec == std::errc{});
  return std::string(buf.data(), out.ptr);
}

/// Store a parsed flag value in `field`; false when the parse failed.
template <typename Field, typename Value>
bool take(Field& field, const Result<Value>& parsed) {
  if (!parsed.is_ok()) return false;
  field = static_cast<Field>(parsed.value());
  return true;
}

}  // namespace

std::string reproducer(const FaultSimConfig& config) {
  std::ostringstream os;
  os << "faultsim --ftl=" << sim::to_string(config.kind) << " --seed=" << config.seed
     << " --requests=" << config.requests
     << " --max-pages=" << config.max_pages_per_request
     << " --ws=" << fraction(config.working_set_fraction)
     << " --reads=" << fraction(config.read_fraction) << " --gap=" << config.mean_gap_us
     << " --crash-us=" << config.crash_time_us;
  // Non-default device topology / failure knobs only, so legacy
  // reproducer lines stay byte-identical.
  if (config.ftl_config.geometry.planes_per_chip != 1) {
    os << " --planes=" << config.ftl_config.geometry.planes_per_chip;
  }
  if (config.ftl_config.bad_blocks.spare_blocks_per_unit != 0) {
    os << " --spares=" << config.ftl_config.bad_blocks.spare_blocks_per_unit;
  }
  if (config.ftl_config.bad_blocks.factory_bad_ppm != 0) {
    os << " --factory-ppm=" << config.ftl_config.bad_blocks.factory_bad_ppm;
  }
  if (config.ftl_config.bad_blocks.erase_endurance != 0) {
    os << " --endurance=" << config.ftl_config.bad_blocks.erase_endurance;
  }
  if (config.tenants != 1) os << " --tenants=" << config.tenants;
  if (config.arb != ctrl::ArbPolicy::kRoundRobin) {
    os << " --arb=" << ctrl::to_string(config.arb);
  }
  return os.str();
}

std::optional<FaultSimConfig> parse_reproducer(const std::string& line) {
  FaultSimConfig config;
  std::istringstream is(line);
  std::string token;
  bool first = true;
  while (is >> token) {
    // The leading word of a reproducer line is the binary name.
    if (first && token.find("--") != 0) {
      first = false;
      continue;
    }
    first = false;
    const std::size_t eq = token.find('=');
    if (token.rfind("--", 0) != 0 || eq == std::string::npos) return std::nullopt;
    const std::string flag = token.substr(0, eq);
    const std::string key = flag.substr(2);
    const std::string_view value = std::string_view(token).substr(eq + 1);
    // Numbers go through the shared flag parsers: exactly of their kind,
    // no sign, no trailing characters, within the field's range.
    nand::BadBlockConfig& bad = config.ftl_config.bad_blocks;
    bool ok = true;
    if (key == "ftl") {
      const auto kind = ftl_kind_from(std::string(value));
      if (!kind) return std::nullopt;
      config.kind = *kind;
    } else if (key == "seed") {
      ok = take(config.seed, sim::parse_uint_value(flag, value));
    } else if (key == "requests") {
      ok = take(config.requests, sim::parse_uint_value(flag, value));
    } else if (key == "max-pages") {
      ok = take(config.max_pages_per_request, sim::parse_uint_value(flag, value, UINT32_MAX));
    } else if (key == "ws") {
      ok = take(config.working_set_fraction, sim::parse_fraction_value(flag, value));
    } else if (key == "reads") {
      ok = take(config.read_fraction, sim::parse_fraction_value(flag, value));
    } else if (key == "gap") {
      ok = take(config.mean_gap_us, sim::parse_uint_value(flag, value, INT64_MAX));
    } else if (key == "crash-us") {
      ok = take(config.crash_time_us, sim::parse_uint_value(flag, value, INT64_MAX));
    } else if (key == "planes") {
      ok = take(config.ftl_config.geometry.planes_per_chip,
                sim::parse_count_value(flag, value, UINT32_MAX));
    } else if (key == "spares") {
      ok = take(bad.spare_blocks_per_unit, sim::parse_uint_value(flag, value, UINT32_MAX));
    } else if (key == "factory-ppm") {
      ok = take(bad.factory_bad_ppm, sim::parse_uint_value(flag, value, UINT32_MAX));
    } else if (key == "endurance") {
      ok = take(bad.erase_endurance, sim::parse_uint_value(flag, value));
    } else if (key == "tenants") {
      ok = take(config.tenants, sim::parse_count_value(flag, value, UINT32_MAX));
    } else if (key == "arb") {
      const auto policy = ctrl::arb_policy_from(std::string(value));
      if (!policy) return std::nullopt;
      config.arb = *policy;
    } else {
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  // Values a trial cannot run: an invalid geometry or a spare pool with no
  // visible block left would assert in the device constructors, and a
  // working-set fraction outside (0, 1] — NaN included, hence the negated
  // test — would cast to a huge working set.
  const nand::Geometry& geometry = config.ftl_config.geometry;
  if (!geometry.valid() ||
      config.ftl_config.bad_blocks.spare_blocks_per_unit >= geometry.blocks_per_chip ||
      !(config.working_set_fraction > 0.0 && config.working_set_fraction <= 1.0)) {
    return std::nullopt;
  }
  return config;
}

}  // namespace rps::faultsim
