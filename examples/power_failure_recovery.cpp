// The paired-page problem, end to end (paper Sections 1 and 3.3):
//
//  1. fill a block's LSB pages with acknowledged user data,
//  2. cut power in the middle of an MSB program — the destructive MSB
//     program wipes out the paired LSB page's old data,
//  3. run flexFTL's recovery: re-read the slow block's LSB pages,
//     reconstruct the lost page from the per-block XOR parity page, and
//     remap it to a fresh location.
//
//   $ ./power_failure_recovery
#include <cstdio>
#include <string>

#include "src/core/flex_ftl.hpp"

using namespace rps;

namespace {

std::vector<std::uint8_t> payload(const std::string& text) {
  return {text.begin(), text.end()};
}

std::string text_of(const nand::PageImage& page) {
  return {page.bytes.begin(), page.bytes.end()};
}

}  // namespace

int main() {
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.channels = 1;
  config.geometry.chips_per_channel = 1;
  config.geometry.wordlines_per_block = 8;
  core::FlexFtl ftl(config);

  std::printf("=== 1. Fast phase: fill a block's LSB pages ===\n");
  Microseconds now = 0;
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    const auto op = ftl.write_data(lpn, payload("mail #" + std::to_string(lpn)),
                                   now, 0.9);
    now = op.value().complete;
  }
  std::printf("8 LSB pages written and ACKed; parity page flushed to the\n");
  std::printf("backup block (%llu backup pages so far); block is now slow.\n\n",
              static_cast<unsigned long long>(ftl.stats().backup_pages));

  std::printf("=== 2. Power loss during an MSB program ===\n");
  const auto msb = ftl.write_data(20, payload("in-flight write"), now, 0.01);
  const Microseconds mid = msb.value().complete - 500;
  const auto victims = ftl.device().inject_power_loss(mid);
  std::printf("power cut at t=%lld us: %zu program(s) interrupted\n",
              static_cast<long long>(mid), victims.size());
  for (const auto& v : victims) {
    std::printf("  chip %u block %u %s was in flight\n", v.chip, v.block,
                v.pos.to_string().c_str());
  }
  const auto broken = ftl.read_data(0, ftl.device().all_idle_at());
  std::printf("reading lpn 0 (acknowledged data!): %s\n\n",
              broken.is_ok() ? "OK?!" : std::string(to_string(broken.code())).c_str());

  std::printf("=== 3. Reboot: parity-based recovery (Fig. 7b) ===\n");
  const core::RecoveryReport report =
      ftl.recover_from_power_loss(victims, ftl.device().all_idle_at());
  std::printf("slow blocks checked:   %llu\n",
              static_cast<unsigned long long>(report.slow_blocks_checked));
  std::printf("LSB pages re-read:     %llu\n",
              static_cast<unsigned long long>(report.lsb_pages_read));
  std::printf("parity pages read:     %llu\n",
              static_cast<unsigned long long>(report.parity_pages_read));
  std::printf("pages recovered:       %llu\n",
              static_cast<unsigned long long>(report.pages_recovered));
  std::printf("pages lost:            %llu\n",
              static_cast<unsigned long long>(report.pages_lost));
  std::printf("interrupted discarded: %llu (never acknowledged)\n",
              static_cast<unsigned long long>(report.interrupted_writes_discarded));
  std::printf("recovery time:         %lld us\n\n",
              static_cast<long long>(report.recovery_time_us));

  const auto healed = ftl.read_data(0, ftl.device().all_idle_at());
  if (healed.is_ok()) {
    std::printf("reading lpn 0 after recovery -> \"%s\"\n", text_of(healed.value()).c_str());
    std::printf("\nOne parity page protected the whole block — an FPS FTL would\n");
    std::printf("have needed a backup write for every other LSB page instead.\n");
    return 0;
  }
  std::printf("recovery failed: %s\n", std::string(to_string(healed.code())).c_str());
  return 1;
}
