// Host commands: a whole host request (`HostCommand`, mirroring
// workload::IoRequest's page_count span) as the controller receives it.
// Its page ops are never built as objects: page `index` of a command is
// fully determined by the pair (kind and LPN derive from the command; on
// an `ordered` command page j waits for page j-1, journal-style, while
// the pages of an ordinary command are free to stripe across chips).
#pragma once

#include <cstdint>

#include "src/util/types.hpp"

namespace rps::ctrl {

using CommandId = std::uint64_t;

enum class CmdKind : std::uint8_t { kRead = 0, kWrite = 1 };
enum class OpKind : std::uint8_t { kHostRead = 0, kHostWrite = 1 };

/// One whole host request, as the simulator issues it.
struct HostCommand {
  CmdKind kind = CmdKind::kWrite;
  Lpn lpn = 0;                    // first logical page
  std::uint32_t page_count = 1;
  Microseconds issue = 0;         // earliest time any page op may start
  /// Host write-buffer fill level in [0, 1] at issue (flexFTL policy input).
  double buffer_utilization = 0.0;
  /// FDP-style write-stream / placement hint. 0 = the default stream
  /// (exactly the pre-multi-tenant behavior); the multi-queue frontend
  /// assigns one stream per tenant so the allocator can segregate their
  /// data onto distinct active blocks.
  std::uint32_t stream = 0;
  /// Chain page j on page j-1 (journal-like strict ordering). Default:
  /// the pages of one request are independent and may stripe freely.
  bool ordered = false;
};

/// Sentinel: the op belongs to no plane group. Consecutive unordered
/// write pages form groups of planes_per_chip, whose members the
/// dispatcher steers onto sibling planes of one die so their cell windows
/// overlap; every other op (reads, ordered writes, one plane per die) is
/// in no group.
inline constexpr std::uint32_t kNoPlaneGroup = 0xffffffffu;

}  // namespace rps::ctrl
