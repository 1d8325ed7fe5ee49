// slcFTL: the capacity-sacrificing fast baseline after Lee et al. [4]
// (paper Section 5, related work).
//
// Every block is used in SLC mode: only its LSB pages are written, each at
// LSB program speed. Writes are always fast and — because no MSB program
// ever disturbs an LSB page — inherently safe against sudden power-off
// with no backup scheme at all. The price is half the device capacity,
// which is exactly the drawback the paper contrasts flexFTL against:
// "all the MSB pages of a block are skipped when fast LSB-page writes are
// used, thus wasting half the capacity of the block."
#pragma once

#include <vector>

#include "src/ftl/ftl_base.hpp"

namespace rps::ftl {

class SlcFtl : public FtlBase {
 public:
  explicit SlcFtl(const FtlConfig& config);

  [[nodiscard]] std::string_view name() const override { return "slcFTL"; }

 protected:
  Result<Microseconds> allocate_host_page(std::uint32_t chip, Lpn lpn,
                                          nand::PageData data, Microseconds now,
                                          double buffer_utilization) override;
  Result<Microseconds> allocate_gc_page(std::uint32_t chip, Lpn lpn, nand::PageData data,
                                        Microseconds now, bool background) override;

  void save_extra(ser::Writer& w) const override;
  void load_extra(ser::Reader& r) override;

 private:
  /// Append a page at `chip`'s SLC cursor (whose `next` is a word line),
  /// opening a block (and switching it to SLC mode) as needed.
  Result<Microseconds> append(std::uint32_t chip, Lpn lpn, nand::PageData data,
                              Microseconds now, bool gc);

  static FtlConfig halved(FtlConfig config) {
    // Only LSB pages carry data: the exported space is half of what the
    // same geometry exports in MLC mode.
    config.capacity_factor *= 0.5;
    return config;
  }

  std::vector<BlockCursor> cursors_;  // per chip
};

}  // namespace rps::ftl
