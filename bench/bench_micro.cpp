// Micro benchmarks (google-benchmark): the op-level costs of the simulator
// primitives — constraint checking, order generation, device operations,
// mapping updates, parity XOR and the interference Monte Carlo. These
// bound the simulation throughput (host-time per simulated I/O).
#include <benchmark/benchmark.h>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/nand/device.hpp"
#include "src/nand/program_order.hpp"
#include "src/reliability/study.hpp"
#include "src/util/random.hpp"

using namespace rps;

namespace {

void BM_CheckProgramLegality(benchmark::State& state) {
  nand::BlockProgramState block(128);
  for (std::uint32_t wl = 0; wl < 64; ++wl) {
    block.mark_programmed({wl, nand::PageType::kLsb});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::check_program_legality(
        block, {64, nand::PageType::kLsb}, nand::SequenceKind::kRps));
  }
}
BENCHMARK(BM_CheckProgramLegality);

void BM_FpsOrderGeneration(benchmark::State& state) {
  const auto wordlines = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::fps_order(wordlines));
  }
}
BENCHMARK(BM_FpsOrderGeneration)->Arg(64)->Arg(128);

void BM_RandomRpsOrder(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::random_rps_order(64, rng));
  }
}
BENCHMARK(BM_RandomRpsOrder);

void BM_ExposureAnalysis(benchmark::State& state) {
  const nand::ProgramOrder order = nand::rps_full_order(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::analyze_exposure(order, 128));
  }
}
BENCHMARK(BM_ExposureAnalysis);

void BM_DeviceProgramEraseCycle(benchmark::State& state) {
  nand::NandDevice dev(nand::Geometry::tiny(), nand::TimingSpec::paper(),
                       nand::SequenceKind::kRps);
  const nand::ProgramOrder order =
      nand::rps_full_order(nand::Geometry::tiny().wordlines_per_block);
  Microseconds now = 0;
  for (auto _ : state) {
    for (const nand::PagePos pos : order) {
      benchmark::DoNotOptimize(dev.program({0, 0, pos}, {}, now));
    }
    benchmark::DoNotOptimize(dev.erase({0, 0}, now));
    now = dev.all_idle_at();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_DeviceProgramEraseCycle);

void BM_PageDataXor(benchmark::State& state) {
  nand::PageImage acc;
  acc.record.lpn = 0;
  nand::PageImage page;
  page.record.lpn = 42;
  page.record.signature = 0x1234567890abcdefull;
  page.bytes.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    acc.xor_with(page);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageDataXor)->Arg(0)->Arg(4096);

void BM_PageFtlWrite(benchmark::State& state) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.next_below(n), 0, 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageFtlWrite);

void BM_FlexFtlWrite(benchmark::State& state) {
  core::FlexFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.next_below(n), 0, 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexFtlWrite);

void BM_FlexFtlRead(benchmark::State& state) {
  core::FlexFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.read(rng.next_below(n), 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexFtlRead);

void BM_InterferenceBlock(benchmark::State& state) {
  Rng rng(3);
  const reliability::VthModel model = reliability::VthModel::mlc();
  const nand::ProgramOrder order = nand::rps_full_order(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::simulate_block(order, model, 256, rng));
  }
}
BENCHMARK(BM_InterferenceBlock);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfGenerator zipf(1 << 20, 0.85);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
