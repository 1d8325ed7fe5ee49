// Fig. 4(b) reproduction: bit-error-rate distributions under the paper's
// worst-case operating condition (3K P/E cycles + 1 year retention) for
// the FPS and RPS program schemes. The paper's claim: the BER for RPS is
// not higher than for FPS even at end of life.
#include <cstdio>

#include "src/reliability/study.hpp"
#include "src/util/table.hpp"

using namespace rps;
using reliability::Scheme;

int main() {
  reliability::StudyConfig config;
  config.blocks = 96;
  config.wordlines = 64;
  config.cells_per_wordline = 1024;
  config.stress = reliability::StressCondition::worst_case();
  config.seed = 42;

  const std::vector<Scheme> schemes = {Scheme::kFps, Scheme::kRpsFull,
                                       Scheme::kRpsHalf, Scheme::kRpsRandom,
                                       Scheme::kUnconstrained};
  const auto results = run_studies(schemes, config);

  std::printf("Fig. 4(b): bit error rate under the worst-case condition\n");
  std::printf("(%.0f P/E cycles, %.0f-day retention)\n\n", config.stress.pe_cycles,
              config.stress.retention_days);

  TablePrinter table({"Scheme", "p10", "median", "p90", "p99", "max", "mean"});
  double fps_median = 0.0;
  for (const reliability::StudyResult& r : results) {
    if (r.scheme == Scheme::kFps) fps_median = r.ber_per_page.median();
    table.add_row({to_string(r.scheme),
                   TablePrinter::fmt(r.ber_per_page.percentile(10) * 1e3, 3),
                   TablePrinter::fmt(r.ber_per_page.median() * 1e3, 3),
                   TablePrinter::fmt(r.ber_per_page.percentile(90) * 1e3, 3),
                   TablePrinter::fmt(r.ber_per_page.percentile(99) * 1e3, 3),
                   TablePrinter::fmt(r.ber_per_page.max() * 1e3, 3),
                   TablePrinter::fmt(r.ber_per_page.mean() * 1e3, 3)});
  }
  std::printf("%s(all values x 1e-3)\n\n", table.to_string().c_str());

  std::printf("Paper's claim: RPS BER is NOT higher than FPS BER at worst case.\n");
  for (const reliability::StudyResult& r : results) {
    if (r.scheme == Scheme::kFps) continue;
    const double ratio = fps_median > 0 ? r.ber_per_page.median() / fps_median : 0.0;
    const bool rps = r.scheme != Scheme::kUnconstrained;
    std::printf("  %-12s median BER / FPS median BER = %.3f (%s)\n",
                to_string(r.scheme), ratio,
                rps ? (ratio <= 1.05 ? "holds" : "VIOLATED")
                    : "strawman: expected > 1");
  }
  return 0;
}
