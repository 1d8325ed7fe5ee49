// flexFTL's adaptive page-allocation policy (Section 3.2).
//
// The policy manager picks the pass — the page type — for each write
// from two signals:
//   u — write-buffer utilization: high u means a burst is underway and the
//       host needs peak bandwidth now;
//   q — the quota of successive LSB-page writes: how many more LSB pages
//       can be consumed before future bandwidth is endangered. Every LSB
//       (pass 0) write decrements q, every MSB (final-pass) write
//       increments it (background GC, which copies with MSB pages in idle
//       time, is what replenishes q); TLC's middle CSB pass is neutral.
//
// Decision rule (paper, generalized to n passes per word line):
//   u > u_high: LSB if q > 0, else rotate;
//   u < u_low : the highest pass with an open block (LSB if none —
//               footnote 1);
//   otherwise : rotate.
// Rotation walks the passes round robin per chip, skipping passes with no
// open block. At n = 2 it is the paper's alternate-LSB/MSB toggle.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::core {

/// The highest pass set in an `open` mask (PolicyManager::choose); 0 when
/// no later pass is open.
constexpr std::uint32_t highest_open_pass(std::uint32_t open) {
  return open == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(open)) - 1;
}

class PolicyManager {
 public:
  struct Params {
    double u_high = 0.80;
    double u_low = 0.10;
    /// Initial quota: the paper uses 5% of all LSB pages in the device.
    std::int64_t initial_quota = 0;
    /// Chips in the device: the rotation state is kept per chip.
    /// (A single global toggle resonates with round-robin write striping
    /// when the chip count is even — half the chips would see only LSB
    /// choices — so rotation must be tracked where it is consumed.)
    std::uint32_t chips = 1;
    /// Passes per word line: 2 (MLC) or 3 (TLC).
    std::uint32_t passes = 2;
  };

  explicit PolicyManager(const Params& params);

  /// Choose the pass (0 = LSB .. passes - 1 = MSB) for the next write on
  /// `chip`. Bit p of `open` is set when pass p (p >= 1) has an open block
  /// on that chip; pass 0 can always allocate one.
  [[nodiscard]] std::uint32_t choose(std::uint32_t chip, double buffer_utilization,
                                     std::uint32_t open);

  /// Quota bookkeeping, driven by the writes actually performed (host and
  /// GC alike). q is capped at its initial value: the quota models the
  /// largest burst the system promises to absorb.
  void note_lsb_write();
  void note_msb_write();

  [[nodiscard]] std::int64_t quota() const { return quota_; }
  [[nodiscard]] std::int64_t initial_quota() const { return params_.initial_quota; }
  [[nodiscard]] const Params& params() const { return params_; }

  /// Snapshot support (params are construction-time config).
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  std::uint32_t rotate(std::uint32_t chip, std::uint32_t open);

  Params params_;
  std::int64_t quota_;
  std::vector<std::uint8_t> next_pass_;  // per chip: where rotation resumes
};

}  // namespace rps::core
