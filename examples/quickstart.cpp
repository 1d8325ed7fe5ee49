// Quickstart: build a flexFTL-managed MLC NAND storage system, write and
// read data, and inspect what the RPS scheme did under the hood.
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "src/core/flex_ftl.hpp"

using namespace rps;

int main() {
  // A small 2-channel x 2-chip MLC device. flexFTL programs it under the
  // relaxed program sequence (constraints 1-3 only).
  ftl::FtlConfig config = ftl::FtlConfig::tiny();
  config.geometry.wordlines_per_block = 16;  // 32 pages per block
  core::FlexFtl ftl(config);

  std::printf("Device: %u chips x %u blocks x %u pages (%s sequence)\n",
              config.geometry.num_chips(), config.geometry.blocks_per_chip,
              config.geometry.pages_per_block(),
              nand::to_string(ftl.device().sequence_kind()));
  std::printf("Exported capacity: %llu logical pages\n\n",
              static_cast<unsigned long long>(ftl.exported_pages()));

  // Write a few pages with real payloads. The third argument is the
  // current time; the fourth is the write-buffer utilization the policy
  // manager uses to pick LSB vs MSB pages (0.9 = burst in progress).
  Microseconds now = 0;
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    const std::string text = "hello page " + std::to_string(lpn);
    const Result<ftl::HostOp> op = ftl.write_data(
        lpn, std::vector<std::uint8_t>(text.begin(), text.end()), now,
        /*buffer_utilization=*/0.9);
    if (!op.is_ok()) {
      std::printf("write %llu failed: %s\n", static_cast<unsigned long long>(lpn),
                  std::string(to_string(op.code())).c_str());
      return 1;
    }
    std::printf("wrote lpn %llu, durable at t=%lld us\n",
                static_cast<unsigned long long>(lpn),
                static_cast<long long>(op.value().complete));
    now = op.value().complete;
  }

  // Read one back and verify the payload survived the FTL's placement.
  const Result<nand::PageImage> data = ftl.read_data(3, now);
  if (data.is_ok()) {
    const std::string text(data.value().bytes.begin(), data.value().bytes.end());
    std::printf("\nread lpn 3 -> \"%s\"\n", text.c_str());
  }

  // What happened at the device level: a burst at high buffer utilization
  // is served entirely with fast LSB pages (the 2PO fast phase).
  const ftl::FtlStats& stats = ftl.stats();
  std::printf("\nhost writes: %llu (LSB %llu / MSB %llu), quota q = %lld\n",
              static_cast<unsigned long long>(stats.host_write_pages),
              static_cast<unsigned long long>(stats.host_lsb_writes),
              static_cast<unsigned long long>(stats.host_msb_writes),
              static_cast<long long>(ftl.quota()));
  std::printf("LSB program: %lld us vs MSB program: %lld us — that asymmetry\n",
              static_cast<long long>(config.timing.program_lsb_us),
              static_cast<long long>(config.timing.program_msb_us));
  std::printf("is what flexFTL exploits. An FPS FTL would have alternated.\n");
  return 0;
}
