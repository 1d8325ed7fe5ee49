// Abstract FTL with the machinery every policy shares: page-level mapping,
// block bookkeeping, greedy foreground/background garbage collection, host
// read/write entry points with device-time accounting, and the append
// machinery (block cursors, block opening, the SLC-mode backup cycle and
// their snapshot codecs).
//
// Concrete FTLs (pageFTL, parityFTL, rtfFTL, flexFTL, slcFTL) implement
// the ctrl::Allocator interface — the page *allocation policy*: where a
// host write and a GC copy land on a given chip, and what backup work
// surrounds them. Chip selection is NOT the policy's job: write(), the
// set-up path (preconditioning and fills), picks a chip itself
// (capacity-aware round robin), while the command controller
// (src/controller/) binds ops to idle chips and enters through write_on().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "src/controller/allocator.hpp"
#include "src/ftl/block_manager.hpp"
#include "src/ftl/config.hpp"
#include "src/ftl/mapping.hpp"
#include "src/nand/device.hpp"
#include "src/util/counter_fields.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::obs {
class TraceSink;
}  // namespace rps::obs

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::ftl {

/// FTL-level accounting. Fields come from the shared X-macro list
/// (src/util/counter_fields.hpp, where each is documented) so the struct,
/// Registry::delta, serialization and the metrics report can never
/// disagree on the field set.
struct FtlStats {
#define RPS_FIELD(name) std::uint64_t name = 0;
  RPS_FTL_STAT_FIELDS(RPS_FIELD)
#undef RPS_FIELD

  /// Write amplification: NAND programs per host page write.
  [[nodiscard]] double waf(const nand::OpCounters& device) const {
    return host_write_pages == 0
               ? 0.0
               : static_cast<double>(device.programs()) /
                     static_cast<double>(host_write_pages);
  }
};

/// The append position of one open block: the index of its next page in
/// the owning policy's program order (pageFTL and rtfFTL: the block's FPS
/// order; slcFTL and every SLC backup block: its LSB word lines). Not
/// valid between blocks; a valid cursor always has a page left.
struct BlockCursor {
  bool valid = false;
  std::uint32_t block = 0;
  std::uint32_t next = 0;
};

/// Completion information for one host operation.
struct HostOp {
  Microseconds complete = 0;  // when the data is durable / delivered
};

/// Outcome of pick_unit: the unit a write binds to, or — when no unit is
/// idle — the earliest time one frees up.
struct UnitPick {
  std::uint32_t unit = 0;
  bool found = false;
  Microseconds next_free = kTimeNever;  // earliest busy_until when !found
};

/// The capacity-aware round robin in one pass over `units` units, from
/// unit `rr % units`: among the units idle at `t` (busy_until(u) <= t),
/// the one with the most headroom, ties to the first in cyclic order.
/// With `anchor_die` >= 0, an idle unit among that die's `planes` units
/// beats any unit off it (plane affinity); off the anchor die the pick
/// spills to the whole idle set. On a pick `rr` advances by one; when no
/// unit is idle it stays put and `next_free` is the earliest busy_until.
/// A template over the two per-unit reads so the property test can drive
/// it with plain arrays.
template <typename BusyUntil, typename Headroom>
UnitPick pick_unit(std::uint32_t units, std::uint32_t planes, std::uint32_t& rr,
                   Microseconds t, std::int64_t anchor_die, BusyUntil busy_until,
                   Headroom headroom) {
  // The anchor die's units are [anchor_lo, anchor_lo + planes); without an
  // anchor, anchor_lo = units makes `u - anchor_lo` wrap past every plane.
  const std::uint32_t anchor_lo =
      anchor_die >= 0 ? static_cast<std::uint32_t>(anchor_die) * planes : units;
  // Each idle unit's rank is its headroom + 1 (0 = nothing idle yet), plus
  // a bit above any headroom on the anchor die. Headroom is a page count,
  // far below 2^62.
  constexpr std::uint64_t kAnchored = std::uint64_t{1} << 62;
  UnitPick pick;
  std::uint64_t best_rank = 0;
  std::uint32_t u = rr % units;
  for (std::uint32_t i = 0; i < units; ++i) {
    const Microseconds busy = busy_until(u);
    if (busy <= t) {
      const std::uint64_t rank =
          headroom(u) + 1 + (u - anchor_lo < planes ? kAnchored : 0);
      if (rank > best_rank) {
        best_rank = rank;
        pick.unit = u;
      }
    } else {
      pick.next_free = std::min(pick.next_free, busy);
    }
    if (++u == units) u = 0;
  }
  pick.found = best_rank != 0;
  if (pick.found) ++rr;
  return pick;
}

class FtlBase : public ctrl::Allocator {
 public:
  FtlBase(const FtlConfig& config, nand::SequenceKind kind);
  ~FtlBase() override = default;

  FtlBase(const FtlBase&) = delete;
  FtlBase& operator=(const FtlBase&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Service a one-page host write arriving at `now`.
  /// `buffer_utilization` is the host write buffer's fill level in [0, 1]
  /// (flexFTL's policy input; other FTLs ignore it).
  Result<HostOp> write(Lpn lpn, Microseconds now, double buffer_utilization = 0.0);

  /// Controller entry point: service a one-page host write bound to
  /// `chip` (the scheduler already chose an idle chip). Same accounting
  /// as write(), minus the chip pick. `stream` is the FDP-style placement
  /// hint carried by the command (0 = default stream): it is stamped into
  /// the page's spare word, and stream-aware policies (pageFTL and its
  /// derivatives) give each stream its own active-block cursor.
  Result<HostOp> write_on(std::uint32_t chip, Lpn lpn, Microseconds now,
                          double buffer_utilization = 0.0, std::uint32_t stream = 0);

  /// Service a host write carrying a real payload (recovery tests and the
  /// examples verify data contents end to end). The bytes are stored in
  /// the device's payload table, not in the page record.
  Result<HostOp> write_data(Lpn lpn, const std::vector<std::uint8_t>& bytes, Microseconds now,
                            double buffer_utilization = 0.0);

  /// Service a one-page host read arriving at `now`. Reads of never-written
  /// pages complete immediately (zero-fill). A kEccUncorrectable error means
  /// the stored data was destroyed (power loss without recovery).
  Result<HostOp> read(Lpn lpn, Microseconds now);

  /// Read back a stored page with its payload (verification helper,
  /// charges device time). When `complete` is non-null it receives the
  /// delivery time (`now` for zero-fill reads of unwritten pages).
  Result<nand::PageImage> read_data(Lpn lpn, Microseconds now,
                                    Microseconds* complete = nullptr);

  /// Offer the FTL an idle window [now, deadline). Forwards to the
  /// policy's on_idle_plan (the Allocator hook).
  void on_idle(Microseconds now, Microseconds deadline) { on_idle_plan(now, deadline); }

  /// Base idle plan: background GC on chips under the free-block
  /// threshold, plus opt-in wear leveling and read scrubbing. Policies
  /// that bank extra idle work (rtfFTL, flexFTL) override and extend.
  void on_idle_plan(Microseconds now, Microseconds deadline) override;

  /// Striping hook for the command controller: pick_chip()'s rule
  /// restricted to the units idle at `t`, preferring `anchor_die`'s idle
  /// planes (-1 = no anchor); see pick_unit. With the whole array idle
  /// this is exactly pick_chip() — which is what makes controller
  /// placement bit-identical to write()'s whenever the whole array is
  /// idle. The round robin advances only when a unit is found.
  UnitPick pick_idle_unit(Microseconds t, std::int64_t anchor_die);

  /// write()'s unconstrained chip pick (controller's no-striping mode).
  std::uint32_t pick_unconstrained_chip() { return pick_chip(); }

  /// Observe every mapping commit (lpn -> physical page), in program
  /// order. The differential tests use this to compare the controller
  /// path's placement sequence against write()'s.
  using PlacementObserver = std::function<void(Lpn, const nand::PageAddress&)>;
  void set_placement_observer(PlacementObserver observer) {
    placement_observer_ = std::move(observer);
  }

  /// TRIM/discard: drop the mapping for `lpn`. The physical page becomes
  /// invalid (reclaimable by GC); subsequent reads are zero-fill. No-op on
  /// unmapped pages. TRIM is volatile: no trim journal is modeled, so
  /// rebuild_mapping() after a reboot may resurrect trimmed data (as on
  /// journal-less real FTLs).
  Status trim(Lpn lpn);

  /// Rebuild the logical-to-physical mapping by scanning the out-of-band
  /// metadata of every valid page on the media — what a real FTL does on
  /// boot after its RAM tables are lost. When several physical copies of
  /// an LPN exist (GC copies, backups not yet erased), the highest
  /// host-write version wins. Replaces the in-memory mapping and the
  /// per-block valid-page accounting.
  void rebuild_mapping();

  /// Attach a trace sink (null = tracing off, the default). Borrowed: the
  /// harness owns the sink and must keep it alive for the FTL's lifetime
  /// or detach with nullptr. Every instrumentation site guards on the
  /// pointer, so the disabled cost is one branch per site.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return trace_; }

  /// State-sampling hooks. Policies with the paper's flexFTL dynamics
  /// override: the LSB quota q (-1 = the policy has no quota notion) and
  /// the total slow-block queue depth across chips (0 likewise).
  [[nodiscard]] virtual std::int64_t observed_lsb_quota() const { return -1; }
  [[nodiscard]] virtual std::uint64_t observed_slow_queue_depth() const { return 0; }

  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  [[nodiscard]] nand::NandDevice& device() { return device_; }
  [[nodiscard]] const nand::NandDevice& device() const { return device_; }
  [[nodiscard]] const FtlConfig& config() const { return config_; }
  [[nodiscard]] const MappingTable& mapping() const { return mapping_; }
  [[nodiscard]] const BlockManager& blocks() const { return blocks_; }
  [[nodiscard]] Lpn exported_pages() const { return mapping_.exported_pages(); }

  /// Debug invariant: every mapped LPN's block accounts it as valid, and
  /// per-block valid counts sum to the mapped count.
  [[nodiscard]] bool check_consistency() const;

  /// Snapshot support: serialize / restore the complete mutable FTL state
  /// (device media + timelines, mapping, block pools, stats, cursors) so a
  /// restored FTL is bit-identical to the one saved — same placements,
  /// same timings, same digests. Policy-specific state (active cursors,
  /// parity accumulators, SBQueues, ...) rides through the save_extra /
  /// load_extra hooks each concrete FTL overrides. Borrowed pointers
  /// (trace sink, placement observer) are not serialized.
  void save_state(ser::Writer& w) const;
  void load_state(ser::Reader& r);

 protected:
  /// Policy-specific snapshot state. The base implementations serialize
  /// nothing; every concrete FTL with mutable members overrides both.
  virtual void save_extra(ser::Writer& w) const;
  virtual void load_extra(ser::Reader& r);

  // The allocation policy itself — ctrl::Allocator's allocate_host_page /
  // allocate_gc_page / on_idle_plan — is what concrete FTLs implement.

  /// Update mapping + valid counters for a page just written to `addr`.
  void commit_mapping(Lpn lpn, const nand::PageAddress& addr);

  /// Relocate valid pages out of `victim` until done, `deadline`, or
  /// `max_copies` pages; erases and frees the block when fully cleaned.
  /// Returns true if the block was freed. With a trace sink attached this
  /// also records the GC migration (and block reclaim) events. All device
  /// ops of the collection are attributed to `cause` (wear leveling and
  /// scrubbing pass their own).
  bool collect_block(std::uint32_t chip, std::uint32_t victim, Microseconds now,
                     Microseconds deadline, bool background,
                     std::uint32_t max_copies = UINT32_MAX,
                     nand::WriteCause cause = nand::WriteCause::kGcCopy);

  /// Amortized foreground GC: a few relocation copies per host write on a
  /// low-free chip. Keeps reclaim incremental — a whole-block relocation in
  /// the write path is a multi-hundred-millisecond stall that a real FTL
  /// never takes at once.
  void incremental_gc(Microseconds now);

  /// Foreground GC: make sure `chip` has more than the reserve free blocks.
  Status ensure_free_block(std::uint32_t chip, Microseconds now);

  /// Open a fresh active block on `chip` for a writer without one:
  /// `needed()` says whether the writer still lacks its block and
  /// `install(block)` hands it over. A host write at the GC reserve first
  /// runs foreground GC, whose relocation copies re-enter the policy and
  /// may open the writer's block themselves — so needed() is asked again
  /// before allocating (a second block would orphan the first one half
  /// written). GC copies allocate below the reserve. Returns the GC or
  /// allocation error when the writer is still without a block.
  template <typename Needed, typename Install>
  Status open_active_block(std::uint32_t chip, Microseconds now, bool gc, Needed needed,
                           Install install) {
    if (!gc && blocks_.free_blocks(chip) <= config_.gc_reserve_blocks) {
      const Status freed = ensure_free_block(chip, now);
      if (!needed()) return Status::ok();
      if (!freed.is_ok()) return freed;
    }
    const Result<std::uint32_t> block =
        blocks_.allocate(chip, BlockUse::kActive, gc ? 0 : config_.gc_reserve_blocks);
    if (!block.is_ok()) return Status{block.code()};
    install(block.value());
    return Status::ok();
  }

  /// Program `data` on the next LSB page of `chip`'s SLC-mode backup block
  /// at `cursor` (an SLC-mode block has only its LSB pages written, each
  /// at LSB speed). Opens the block first when the cursor has none —
  /// never the chip's last free block, which GC keeps as a relocation
  /// destination. A full backup block's pages are stale (the programs they
  /// covered finished long ago), so it is erased and freed right after its
  /// last page. Returns the program's completion, or the allocation error
  /// (nothing programmed) when no backup block could be opened.
  Result<Microseconds> program_slc_backup(std::uint32_t chip, BlockCursor& cursor,
                                          nand::PageData data, Microseconds now);

  /// Snapshot codec of a cursor array: the count, then (valid, block,
  /// next) per cursor. The loader requires the saved count and fails the
  /// reader on a block outside the FTL-visible range, or a `next` past
  /// `order` (the policy's pages per block) or equal to it on a valid
  /// cursor: either would later address a page no block has.
  static void save_cursors(ser::Writer& w, std::span<const BlockCursor> cursors);
  void load_cursors(ser::Reader& r, std::span<BlockCursor> cursors,
                    std::uint32_t order) const;

  /// Snapshot codec of a page address: chip, block, word line, page type.
  /// The loader fails the reader unless the address names a page of an
  /// FTL-visible block of this device.
  static void save_address(ser::Writer& w, const nand::PageAddress& addr);
  nand::PageAddress load_address(ser::Reader& r) const;

  /// Erase `addr` through the device's bad-block machinery. A kBlockBad
  /// failure (endurance exceeded, spare pool dry) retires the block in
  /// the BlockManager — capacity attrition — and propagates the error;
  /// every policy's erase must go through here so retirement bookkeeping
  /// never diverges from the device's table.
  Result<nand::OpTiming> erase_block(const nand::BlockAddress& addr, Microseconds now);

  /// Static wear leveling (idle time, opt-in via wear_level_threshold):
  /// migrate the coldest full block on each chip whose wear trails the
  /// chip's hottest block by the configured threshold.
  void static_wear_level(Microseconds now, Microseconds deadline);

  /// Read-disturb scrubbing (idle time, opt-in via read_scrub_threshold):
  /// refresh full blocks whose read count since erase passed the threshold.
  void scrub_read_disturbed(Microseconds now, Microseconds deadline);

  /// Chip selection for host-write striping: the chip with the most free
  /// blocks, ties broken round-robin. Pure round-robin lets the valid-data
  /// share of a chip random-walk into its physical capacity (GC cannot
  /// reclaim a chip that is 100% valid); free-space-aware placement keeps
  /// the chips balanced while still spreading consecutive writes.
  std::uint32_t pick_chip();

  /// Unique content signature for a simulated write.
  std::uint64_t make_signature(Lpn lpn);

  /// The stream hint of the host write currently being allocated (valid
  /// inside allocate_host_page; 0 between writes and for GC copies).
  [[nodiscard]] std::uint32_t current_stream() const { return current_stream_; }

  /// Map a stream hint onto one of the config's write_stream_slots
  /// cursor slots. Stream 0 always maps to slot 0 (the default/GC slot —
  /// what keeps single-stream behavior bit-identical to the
  /// pre-multi-tenant code); nonzero streams share slots 1..slots-1
  /// round-robin, modeling a device with limited placement resources
  /// (NVMe FDP's bounded reclaim-unit handles).
  [[nodiscard]] std::uint32_t stream_slot(std::uint32_t stream) const {
    const std::uint32_t slots = std::max<std::uint32_t>(1, config_.write_stream_slots);
    if (stream == 0 || slots == 1) return 0;
    return 1 + (stream - 1) % (slots - 1);
  }

  [[nodiscard]] static Lpn compute_exported_pages(const FtlConfig& config);

 private:
  /// Shared body of write()/write_on(): builds the page payload (stream
  /// tag in the spare word), consults the allocation policy, and runs the
  /// per-write accounting.
  Result<HostOp> host_program(std::uint32_t chip, Lpn lpn,
                              std::span<const std::uint8_t> payload, Microseconds now,
                              double buffer_utilization, std::uint32_t stream);

  /// collect_block minus the tracing wrapper.
  bool collect_block_impl(std::uint32_t chip, std::uint32_t victim, Microseconds now,
                          Microseconds deadline, bool background,
                          std::uint32_t max_copies);

 protected:
  FtlConfig config_;
  nand::NandDevice device_;
  MappingTable mapping_;
  BlockManager blocks_;
  FtlStats stats_;
  std::uint32_t rr_chip_ = 0;
  std::uint32_t bgc_rr_chip_ = 0;
  std::uint32_t igc_rr_chip_ = 0;
  std::uint64_t write_version_ = 0;
  std::uint32_t current_stream_ = 0;  // see current_stream()
  PlacementObserver placement_observer_;
  obs::TraceSink* trace_ = nullptr;  // borrowed; null = tracing off
  /// Scratch for collect_block_impl's multi-plane erase group — a member
  /// so per-collection group building stays off the heap at steady state.
  std::vector<nand::BlockAddress> erase_group_;
};

}  // namespace rps::ftl
