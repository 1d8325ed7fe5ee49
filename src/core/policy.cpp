#include "src/core/policy.hpp"

#include <algorithm>

#include "src/util/serialize.hpp"

namespace rps::core {

PolicyManager::PolicyManager(const Params& params)
    : params_(params),
      quota_(params.initial_quota),
      next_pass_(std::max<std::uint32_t>(1, params.chips), 0) {}

std::uint32_t PolicyManager::rotate(std::uint32_t chip, std::uint32_t open) {
  if (open == 0) return 0;  // only pass 0 can take the write: state untouched
  std::uint8_t& next = next_pass_.at(chip);
  std::uint32_t pass = next;
  while (pass != 0 && (open >> pass & 1u) == 0) pass = (pass + 1) % params_.passes;
  next = static_cast<std::uint8_t>((pass + 1) % params_.passes);
  return pass;
}

std::uint32_t PolicyManager::choose(std::uint32_t chip, double buffer_utilization,
                                    std::uint32_t open) {
  if (buffer_utilization > params_.u_high) {
    if (quota_ > 0) return 0;
    return rotate(chip, open);
  }
  if (buffer_utilization < params_.u_low) {
    // No bandwidth pressure: consume the slowest open pass, banking quota.
    return highest_open_pass(open);
  }
  return rotate(chip, open);
}

void PolicyManager::note_lsb_write() { --quota_; }

void PolicyManager::note_msb_write() {
  quota_ = std::min(quota_ + 1, params_.initial_quota);
}

void PolicyManager::save(ser::Writer& w) const {
  w.i64(quota_);
  w.u64(next_pass_.size());
  for (const std::uint8_t t : next_pass_) w.u8(t);
}

void PolicyManager::load(ser::Reader& r) {
  quota_ = r.i64();
  if (r.u64() != next_pass_.size()) {
    r.fail();
    return;
  }
  for (std::uint8_t& t : next_pass_) {
    t = r.u8();
    if (t >= params_.passes) r.fail();
  }
}

}  // namespace rps::core
