// Shadow oracle for crash-consistency checking.
//
// The oracle rides the FTL's placement observer: every mapping commit
// (host write or GC relocation) appends a (version, signature) record to
// the per-LPN history — GC copies carry the same host-write version as
// their source and are deduplicated, so the history is exactly the
// sequence of host writes in program order. Acknowledgement times are
// joined in afterwards: the synchronous fill phase acks each write at its
// returned completion (ack_latest), the controller-driven main phase joins
// the op log's successful host-write records against the history in
// dispatch order (finalize_from_op_log).
//
// After a crash and reboot, check() walks every LPN and classifies it:
//   - newest pre-crash write acknowledged (program durable at the cut):
//     the read-back must match that version and signature, else it counts
//     as lost (read fails) or stale (an older copy resurfaced),
//   - newest write unacknowledged but an older one was acknowledged: the
//     LPN sits in the overwrite-hazard window — under the eager-commit
//     device model GC may already have erased the acknowledged copy while
//     the newer write was in flight — so it is skipped and counted,
//   - never acknowledged: unacknowledged data may vanish silently.
#pragma once

#include <cstdint>
#include <vector>

#include "src/controller/controller.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::faultsim {

/// Post-recovery verdict over every acknowledged host write.
struct OracleCheck {
  std::uint64_t acked_lpns_checked = 0;
  std::uint64_t lost = 0;   // acknowledged data unreadable after reboot
  std::uint64_t stale = 0;  // readable, but an older version resurfaced
  /// LPNs excluded because their newest pre-crash write was still
  /// unacknowledged (see the overwrite-hazard note above).
  std::uint64_t overwrite_hazard_skipped = 0;
  Lpn first_failed_lpn = kInvalidLpn;

  friend bool operator==(const OracleCheck&, const OracleCheck&) = default;
};

class ShadowOracle {
 public:
  /// Attach to `ftl`: installs the placement observer (replacing any
  /// previous one) and snoops every commit from now on. The oracle must
  /// outlive the observer's use; detach() before destroying either.
  void attach(ftl::FtlBase& ftl);
  void detach();

  /// Mark the epoch boundary between preconditioning (acked via
  /// ack_latest) and the measured phase (acked via the op log): the op-log
  /// join starts after the records present now.
  void mark_epoch();

  /// Synchronous-path acknowledgement (fill phase): the newest record of
  /// `lpn` became durable at `complete`.
  void ack_latest(Lpn lpn, Microseconds complete);

  /// Controller-path acknowledgement: join successful host-write op
  /// records (in log = dispatch order) against the post-epoch history of
  /// each LPN. An op's data counts as durable at its completion time.
  void finalize_from_op_log(const std::vector<ctrl::OpRecord>& log);

  /// Verify post-reboot state: reads every LPN with an acknowledged write
  /// through `ftl` at time `now` and compares against the newest write
  /// acknowledged by `crash_time`. Charges device time (it is a reboot
  /// scrub, not free).
  [[nodiscard]] OracleCheck check(ftl::FtlBase& ftl, Microseconds crash_time,
                                  Microseconds now) const;

  [[nodiscard]] std::uint64_t observed_commits() const { return observed_commits_; }

  /// Snapshot support (warm-started trials): serialize / restore the full
  /// write history and epoch cursors. load() expects an oracle already
  /// attach()ed to a same-capacity FTL (attach sizes the tables).
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  struct WriteRecord {
    std::uint64_t version = 0;
    std::uint64_t signature = 0;
    Microseconds acked_at = kTimeNever;
  };

  void observe(Lpn lpn, const nand::PageAddress& addr);

  ftl::FtlBase* ftl_ = nullptr;
  /// Per-LPN write history, indexed by LPN (sized to the attached FTL's
  /// exported pages — the observer only ever reports host LPNs). Flat
  /// indexing replaces the former hash maps on the observe hot path,
  /// which runs once per mapping commit of every trial.
  std::vector<std::vector<WriteRecord>> history_;
  /// Per-LPN history length at mark_epoch(); op-log join cursor base.
  std::vector<std::size_t> epoch_;
  std::uint64_t observed_commits_ = 0;
};

}  // namespace rps::faultsim
