// Tenant isolation properties of the multi-queue frontend:
//   - N=1 is a pure re-plumbing: a single-tenant frontend (tenant 0 =
//     the default stream) commits exactly the placements the legacy
//     synchronous single-stream path commits, for all five FTLs — the
//     stream machinery must be invisible until a second tenant exists,
//   - nonzero write streams segregate: with per-tenant streams mapped to
//     distinct cursor slots, no active block ever holds two tenants'
//     pages (before GC ever runs), and every page's OOB spare word
//     carries its tenant's stream tag.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/host/multi_queue.hpp"
#include "src/host/tenant.hpp"
#include "src/nand/block.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace rps::host {
namespace {

struct Placement {
  Lpn lpn;
  nand::PageAddress addr;
  friend bool operator==(const Placement& a, const Placement& b) {
    return a.lpn == b.lpn && a.addr.chip == b.addr.chip &&
           a.addr.block == b.addr.block &&
           a.addr.pos.wordline == b.addr.pos.wordline &&
           a.addr.pos.type == b.addr.pos.type;
  }
};

struct SpacedOp {
  bool is_write;
  Lpn lpn;
  Microseconds arrival;
};

/// Single-page requests spaced far enough apart that the device is fully
/// idle at every arrival — the regime where the controller path is
/// provably placement-identical to the legacy path (see
/// test_differential.cpp), so any divergence here is the frontend's.
std::vector<SpacedOp> spaced_ops(Lpn space, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SpacedOp> ops;
  ops.reserve(count);
  Microseconds now = 1'000;
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(SpacedOp{!rng.chance(0.2), rng.next_below(space), now});
    now += 100'000;  // >> any single-request service time on the tiny device
  }
  return ops;
}

/// The utilization the frontend reports for a lone 1-page write with
/// nothing else in flight.
double lone_write_utilization(const ftl::FtlBase& ftl) {
  return std::min(1.0, 1.0 / ftl.config().write_buffer_pages);
}

TEST(TenantIsolation, SingleTenantFrontendMatchesLegacyPlacements) {
  const ftl::FtlConfig config = ftl::FtlConfig::tiny();
  for (const sim::FtlKind kind : {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                  sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                  sim::FtlKind::kSlc}) {
    auto legacy_ftl = sim::make_ftl(kind, config);
    const Lpn space = legacy_ftl->exported_pages();
    const std::vector<SpacedOp> ops = spaced_ops(space, 500, 17);

    // Legacy single-stream path at the same instants.
    std::vector<Placement> legacy;
    legacy_ftl->set_placement_observer([&](Lpn lpn, const nand::PageAddress& a) {
      legacy.push_back({lpn, a});
    });
    const double u = lone_write_utilization(*legacy_ftl);
    for (const SpacedOp& op : ops) {
      if (op.is_write) {
        ASSERT_TRUE(legacy_ftl->write(op.lpn, op.arrival, u).is_ok());
      } else {
        (void)legacy_ftl->read(op.lpn, op.arrival);
      }
    }

    // Same ops as a one-tenant frontend trace. Idle windows are disabled
    // on the frontend side because the legacy loop above offers none.
    auto ftl = sim::make_ftl(kind, config);
    std::vector<Placement> frontend_placements;
    ftl->set_placement_observer([&](Lpn lpn, const nand::PageAddress& a) {
      frontend_placements.push_back({lpn, a});
    });
    workload::Trace trace("n1");
    for (const SpacedOp& op : ops) {
      workload::IoRequest r;
      r.arrival_us = op.arrival;
      r.kind = op.is_write ? workload::IoKind::kWrite : workload::IoKind::kRead;
      r.lpn = op.lpn;
      r.page_count = 1;
      trace.add(r);
    }
    MultiQueueConfig mq;
    mq.idle_threshold_us = kTimeNever / 2;  // no idle windows
    MultiQueueFrontend frontend(*ftl, mq);
    TenantConfig tenant;  // id 0 -> stream 0 -> the default cursor slot
    frontend.add_tenant(tenant, std::move(trace));
    const MultiQueueResult result = frontend.run();

    ASSERT_EQ(result.tenants[0].completed, ops.size()) << sim::to_string(kind);
    ASSERT_FALSE(legacy.empty()) << sim::to_string(kind);
    EXPECT_EQ(frontend_placements, legacy) << sim::to_string(kind);
    EXPECT_TRUE(ftl->check_consistency()) << sim::to_string(kind);
  }
}

TEST(TenantIsolation, NonzeroStreamsSegregateActiveBlocks) {
  // Three tenants on explicit streams 1..3 (distinct cursor slots on the
  // default 4-slot budget), write-only, sized well under the fresh
  // device's free space so GC never runs: every programmed block must
  // belong to exactly one tenant, and every page's OOB tag must name its
  // tenant's stream.
  auto ftl = sim::make_ftl(sim::FtlKind::kPage, ftl::FtlConfig::tiny());
  const std::uint32_t kTenants = 3;
  const Lpn space = ftl->exported_pages();

  std::map<std::uint64_t, std::set<std::uint32_t>> block_owners;
  ftl->set_placement_observer([&](Lpn lpn, const nand::PageAddress& a) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a.chip) << 32) | a.block;
    block_owners[key].insert(tenant_of_lpn(lpn, kTenants, space));
  });

  MultiQueueFrontend frontend(*ftl);
  for (std::uint32_t i = 0; i < kTenants; ++i) {
    TenantConfig t;
    t.id = i;
    t.stream = i + 1;  // explicit nonzero stream, distinct slot each
    t.read_fraction = 0.0;
    t.requests = 60;
    t.mean_interarrival_us = 400;
    const LpnPartition part = tenant_partition(i, kTenants, space);
    frontend.add_tenant(t, tenant_trace(t, part, /*base_seed=*/31));
  }
  const MultiQueueResult result = frontend.run();
  for (const TenantResult& t : result.tenants) {
    EXPECT_EQ(t.completed, t.submitted);
    EXPECT_GT(t.pages, 0u);
  }
  ASSERT_EQ(ftl->stats().foreground_gc_blocks + ftl->stats().background_gc_blocks,
            0u)
      << "sizing bug: GC ran, the pre-GC segregation property does not apply";

  ASSERT_FALSE(block_owners.empty());
  for (const auto& [key, owners] : block_owners) {
    EXPECT_EQ(owners.size(), 1u)
        << "chip " << (key >> 32) << " block " << (key & 0xffffffffu)
        << " holds pages of " << owners.size() << " tenants";
  }

  // OOB tags: every mapped page written by tenant i carries stream i+1.
  const Microseconds now = ftl->device().all_idle_at();
  std::uint64_t tagged = 0;
  for (Lpn lpn = 0; lpn < space; ++lpn) {
    const Result<nand::PageImage> data = ftl->read_data(lpn, now);
    if (!data.is_ok()) continue;
    const std::uint32_t tag = nand::stream_of_spare(data.value().record.spare);
    if (tag == 0) continue;  // never written in this run
    EXPECT_EQ(tag, tenant_of_lpn(lpn, kTenants, space) + 1) << "lpn " << lpn;
    ++tagged;
  }
  EXPECT_GT(tagged, 0u);
}

}  // namespace
}  // namespace rps::host
