// Extension (paper Section 1 / future work): the RPS idea carried to TLC
// (3-bit) NAND. Shows (a) the interference-exposure bound of the relaxed
// TLC sequence equals the conventional shadow sequence's, and (b) the
// fast-phase capacity RPS unlocks: the whole block's LSB pages become one
// consecutive fast run instead of FPS's three-page prefix.
#include <cstdio>
#include <iterator>
#include <string>

#include "src/core/flex_ftl.hpp"
#include "src/nand/program_order.hpp"
#include "src/reliability/study.hpp"
#include "src/util/stats.hpp"
#include "src/util/table.hpp"

using namespace rps;

namespace {

/// Longest prefix of pure-LSB programs a sequence kind allows.
std::uint32_t lsb_run_capacity(std::uint32_t wordlines, nand::SequenceKind kind) {
  nand::BlockProgramState block(wordlines, 3);
  std::uint32_t run = 0;
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    if (!nand::check_program_legality(block, {k, nand::PageType::kLsb}, kind).is_ok()) break;
    block.mark_programmed({k, nand::PageType::kLsb});
    ++run;
  }
  return run;
}

/// Aggressor programs after each word line's final pass.
void add_exposure(SampleSet& set, const nand::ProgramOrder& order, std::uint32_t wordlines) {
  for (const nand::WordlineExposure& e : nand::analyze_exposure(order, wordlines, 3)) {
    set.add(e.aggressors_after_msb);
  }
}

}  // namespace

int main() {
  constexpr std::uint32_t kWordlines = 96;
  constexpr int kTrials = 300;
  Rng rng(7);

  std::printf("TLC extension: relaxed program sequence on 3-bit NAND\n");
  std::printf("(%u word lines = %u pages per block, %d random orders per scheme)\n\n",
              kWordlines, kWordlines * 3, kTrials);

  // Interference exposure per word line (aggressor programs after the
  // final pass), over random members of each sequence family.
  TablePrinter table({"Scheme", "max exposure", "mean exposure",
                      "consecutive LSB run"});
  {
    SampleSet fps;
    add_exposure(fps, nand::fps_order(kWordlines, 3), kWordlines);
    table.add_row({"TLC-FPS (shadow)", TablePrinter::fmt(fps.max(), 0),
                   TablePrinter::fmt(fps.mean(), 3),
                   TablePrinter::fmt_int(lsb_run_capacity(kWordlines,
                                                          nand::SequenceKind::kFps))});
  }
  {
    SampleSet rps;
    for (int t = 0; t < kTrials; ++t) {
      add_exposure(rps, nand::random_rps_order(kWordlines, rng, 3), kWordlines);
    }
    table.add_row({"TLC-RPS (random)", TablePrinter::fmt(rps.max(), 0),
                   TablePrinter::fmt(rps.mean(), 3),
                   TablePrinter::fmt_int(lsb_run_capacity(kWordlines,
                                                          nand::SequenceKind::kRps))});
  }
  {
    SampleSet wild;
    for (int t = 0; t < kTrials; ++t) {
      add_exposure(wild, nand::random_unconstrained_order(kWordlines, rng, 3), kWordlines);
    }
    table.add_row({"TLC-Unconstrained", TablePrinter::fmt(wild.max(), 0),
                   TablePrinter::fmt(wild.mean(), 3), "-"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Dropping the over-specified T6 keeps the exposure bound at 1 (as on\n");
  std::printf("MLC) while growing the consecutive fast-LSB run from 3 pages to the\n");
  std::printf("whole block — the TLC analogue of the paper's RPSfull/2PO scheme.\n\n");

  // Fig. 4 methodology on the 8-state TLC Vth model.
  std::printf("TLC reliability (Fig. 4 methodology, 8-state Vth model):\n");
  TablePrinter reliability({"Scheme", "median WPi [V]", "mean BER (x1e-3)",
                            "max aggressors"});
  reliability::StudyConfig config;
  config.blocks = 48;
  config.wordlines = 48;
  config.cells_per_wordline = 512;
  config.model = reliability::VthModel::tlc();
  config.stress = reliability::StressCondition::fresh();
  using reliability::Scheme;
  const Scheme schemes[] = {Scheme::kFps, Scheme::kRpsFull, Scheme::kRpsRandom,
                            Scheme::kUnconstrained};
  for (std::uint64_t row = 0; row < std::size(schemes); ++row) {
    config.seed = 42 ^ (row << 40);  // one Monte-Carlo stream per table row
    const reliability::StudyResult r = run_study(schemes[row], config);
    reliability.add_row({"TLC-" + std::string(to_string(r.scheme)),
                         TablePrinter::fmt(r.wpi_per_page.median(), 4),
                         TablePrinter::fmt(r.ber_per_page.mean() * 1e3, 3),
                         TablePrinter::fmt(r.aggressors.max(), 0)});
  }
  std::printf("%s\n", reliability.to_string().c_str());

  // 3PO burst absorption on flexFTL with 3-bit cells: under buffer
  // pressure the whole burst rides the 400 us LSB pass; the shadow-order
  // average would be (400+1100+2600)/3 = 1367 us per page.
  std::printf("flexFTL-TLC burst absorption (3PO):\n");
  const ftl::FtlConfig ftl_config = ftl::FtlConfig::tlc();  // 2x2 chips, 64 blocks of 32 WLs
  core::FlexFtl ftl(ftl_config);
  const Lpn burst = 512;
  for (Lpn lpn = 0; lpn < burst; ++lpn) {
    (void)ftl.write(lpn, 0, /*buffer_utilization=*/0.95);
  }
  const Microseconds drain = ftl.device().all_idle_at();
  const double per_page = static_cast<double>(drain) /
                          (static_cast<double>(burst) / ftl_config.geometry.num_chips());
  std::printf("  %llu-page burst drained in %lld us: %.0f us/page/chip "
              "(LSB pass: %lld us; shadow average: %.0f us)\n",
              static_cast<unsigned long long>(burst), static_cast<long long>(drain),
              per_page, static_cast<long long>(ftl_config.timing.program_lsb_us),
              (400.0 + 1100.0 + 2600.0) / 3.0);
  const ftl::FtlStats& stats = ftl.stats();
  std::printf("  host writes by pass (L/C/M): %llu / %llu / %llu\n",
              static_cast<unsigned long long>(stats.host_lsb_writes),
              static_cast<unsigned long long>(stats.host_write_pages - stats.host_lsb_writes -
                                              stats.host_msb_writes),
              static_cast<unsigned long long>(stats.host_msb_writes));
  return 0;
}
