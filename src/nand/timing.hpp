// Operation latencies of the simulated NAND device.
//
// Defaults follow the paper: 500 us LSB program, 2000 us MSB program
// (Section 1, citing 2X-nm MLC parts), 40 us page read (Section 3.3's
// reboot-cost estimate). Erase and bus-transfer times are typical values
// for the same device class. tlc() gives shadow-programmed TLC parts,
// whose three passes get progressively slower (coarse LSB placement,
// intermediate CSB, fine MSB).
#pragma once

#include <cstdint>

#include "src/nand/address.hpp"
#include "src/util/types.hpp"

namespace rps::nand {

struct TimingSpec {
  Microseconds read_us = 40;         // cell sensing, occupies the chip
  Microseconds program_lsb_us = 500;
  Microseconds program_msb_us = 2000;
  Microseconds erase_us = 3500;
  /// Channel-bus occupancy to move one page between controller and chip.
  /// 4 KB over a 400 MB/s toggle-DDR interface is ~10 us.
  Microseconds transfer_us = 10;
  /// The middle (CSB) pass of a TLC word line; unused on MLC.
  Microseconds program_csb_us = 0;

  static constexpr TimingSpec paper() { return TimingSpec{}; }

  /// Nominal shadow-programmed TLC timing.
  static constexpr TimingSpec tlc() {
    return TimingSpec{.read_us = 60,
                      .program_lsb_us = 400,
                      .program_msb_us = 2600,
                      .erase_us = 5000,
                      .transfer_us = 10,
                      .program_csb_us = 1100};
  }

  /// An idealized zero-latency spec for logic-only unit tests.
  static constexpr TimingSpec zero() {
    return TimingSpec{.read_us = 0,
                      .program_lsb_us = 0,
                      .program_msb_us = 0,
                      .erase_us = 0,
                      .transfer_us = 0,
                      .program_csb_us = 0};
  }

  /// Cell-program latency of a page of `type`.
  [[nodiscard]] constexpr Microseconds program_us(PageType type) const {
    switch (type) {
      case PageType::kLsb: return program_lsb_us;
      case PageType::kMsb: return program_msb_us;
      case PageType::kCsb: return program_csb_us;
    }
    return program_msb_us;
  }

  friend constexpr bool operator==(const TimingSpec&, const TimingSpec&) = default;
};

}  // namespace rps::nand
