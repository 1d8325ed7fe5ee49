// Shared configuration for every FTL under test.
#pragma once

#include <cstdint>

#include "src/nand/bad_block.hpp"
#include "src/nand/geometry.hpp"
#include "src/nand/timing.hpp"

namespace rps::ftl {

struct FtlConfig {
  nand::Geometry geometry = nand::Geometry::paper();
  nand::TimingSpec timing = nand::TimingSpec::paper();

  /// Bad-block model (spare pool size, factory/grown defect rates). The
  /// all-zero default disables it: no spares reserved, nothing ever fails.
  nand::BadBlockConfig bad_blocks;

  /// Fraction of physical pages *not* exported as logical capacity
  /// (overprovisioning for GC plus backup-block headroom).
  double overprovisioning = 0.13;

  /// Extra scaling of the exported capacity. FTLs that cannot use every
  /// physical page set this (slcFTL writes only LSB pages: 0.5).
  double capacity_factor = 1.0;

  /// Background GC triggers when a chip's free blocks drop below this
  /// fraction of its blocks (Section 3.2: 10% of total capacity).
  double bgc_free_threshold = 0.10;

  /// Free blocks per chip held back for garbage collection's own use.
  std::uint32_t gc_reserve_blocks = 2;

  /// Background GC yield guard: only relocate a victim in idle time when
  /// it has at least pages_per_block / this-divisor invalid pages.
  std::uint32_t bgc_min_yield_divisor = 4;

  /// Incremental foreground GC: at most this many relocation copies are
  /// piggybacked on one host write when a chip runs low on free blocks.
  std::uint32_t gc_incremental_copies = 4;

  /// Host write-buffer capacity in pages; its utilization u feeds
  /// flexFTL's policy manager.
  std::uint32_t write_buffer_pages = 64;

  /// flexFTL policy parameters (Section 4.1: u_high 80%, u_low 10%,
  /// initial quota 5% of all LSB pages).
  double u_high = 0.80;
  double u_low = 0.10;
  double initial_quota_fraction = 0.05;

  /// rtfFTL: active blocks per chip (Section 4.1 uses 8).
  std::uint32_t rtf_active_blocks = 8;

  /// flexFTL extension (paper's conclusion): predict the next burst's LSB
  /// demand from recent bursts and replenish the quota only that far in
  /// idle time, instead of always refilling to the static ceiling.
  bool use_write_predictor = false;

  /// Static wear leveling: during idle time, if a chip's least-worn full
  /// block trails its most-worn block by at least this many erases, its
  /// (cold) data is migrated so the block re-enters circulation. 0 = off.
  std::uint64_t wear_level_threshold = 0;

  /// Read-disturb scrubbing: during idle time, refresh (relocate + erase)
  /// any full block whose reads-since-erase exceed this count. 0 = off.
  std::uint64_t read_scrub_threshold = 0;

  /// Active-block cursor slots for host write streams (pageFTL and its
  /// derivatives). Slot 0 serves the default stream and GC; nonzero
  /// streams (the multi-queue frontend's per-tenant FDP-style hints)
  /// share slots 1..N-1 round-robin, so tenant data lands on distinct
  /// active blocks up to the slot budget — a bounded resource, like FDP's
  /// reclaim-unit handles. 1 = single-cursor legacy behavior.
  std::uint32_t write_stream_slots = 4;

  /// A small configuration for unit tests.
  static FtlConfig tiny() {
    FtlConfig c;
    c.geometry = nand::Geometry::tiny();
    c.timing = nand::TimingSpec::paper();
    c.overprovisioning = 0.25;
    c.gc_reserve_blocks = 1;
    c.write_buffer_pages = 8;
    c.rtf_active_blocks = 2;
    // The tiny device has so few LSB pages that the paper's 5% quota would
    // round to a handful of writes; keep it meaningful for tests.
    c.initial_quota_fraction = 0.5;
    return c;
  }

  /// flexFTL on 3-bit NAND (the paper's Section 1 projection): 2x2 chips
  /// of 64 blocks with 32 word lines (96 pages), TLC timings, and the
  /// backup headroom of 30% overprovisioning.
  static FtlConfig tlc() {
    FtlConfig c;
    c.geometry = nand::Geometry{.channels = 2,
                                .chips_per_channel = 2,
                                .planes_per_chip = 1,
                                .blocks_per_chip = 64,
                                .wordlines_per_block = 32,
                                .page_size_bytes = 4096,
                                .spare_bytes = 128,
                                .bits_per_cell = 3};
    c.timing = nand::TimingSpec::tlc();
    c.overprovisioning = 0.30;
    return c;
  }

  /// The TLC unit-test device: 2 chips of 24 blocks with 8 word lines.
  static FtlConfig tlc_tiny() {
    FtlConfig c = tlc();
    c.geometry.channels = 1;
    c.geometry.blocks_per_chip = 24;
    c.geometry.wordlines_per_block = 8;
    c.geometry.page_size_bytes = 512;
    c.gc_reserve_blocks = 1;
    c.initial_quota_fraction = 0.5;
    return c;
  }
};

}  // namespace rps::ftl
