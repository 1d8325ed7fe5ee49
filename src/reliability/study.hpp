// The Fig. 4 reliability study on the Vth model, for 2- and 3-bit cells:
// program many blocks under each program scheme, Monte-Carlo every word
// line's cells, and collect the per-page ΣWPi and BER sample populations
// that the paper reports as box plots.
//
// A victim word line's cells are coupled only to neighbor programs that
// land *after* its final pass: earlier ones are compensated by the
// victim's own program-verify step (Section 2.1). Per victim cell the draw
// order is its final state, one normal placement draw, then one draw per
// aggressor pass; page_ber's stress draws follow per page.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nand/program_order.hpp"
#include "src/reliability/vth_model.hpp"
#include "src/util/random.hpp"
#include "src/util/stats.hpp"

namespace rps::reliability {

/// Width of one state's Vth distribution: the p0.1..p99.9 spread, a robust
/// stand-in for the read-window width the paper measures.
double distribution_width(const std::vector<double>& vth);

/// One word line after the whole block is programmed.
struct WordlineResult {
  /// Vth samples of the word line's cells, grouped by final state.
  std::array<std::vector<double>, kMaxStates> vth_by_state;
  /// Sum of the per-state widths — the paper's per-page ΣWPi metric.
  double wpi_sum = 0.0;
  /// Neighbor programs after the word line's final (MSB) pass.
  std::uint32_t aggressors_after_msb = 0;
};

/// Simulate programming one block of `model.bits`-bit cells under `order`
/// (all pages of the block); returns one result per word line.
std::vector<WordlineResult> simulate_block(const nand::ProgramOrder& order,
                                           const VthModel& model,
                                           std::uint32_t cells_per_wordline, Rng& rng);

/// Bit errors when a cell programmed to `state` reads back at `vth`: Gray
/// coding makes an adjacent-state misread cost one bit.
std::uint32_t bit_errors_for_cell(std::size_t state, double vth, const VthModel& model);

/// One cell's Vth after P/E-cycling and retention stress.
double apply_stress(double vth, std::size_t state, const StressCondition& stress,
                    const VthModel& model, Rng& rng);

/// BER of one word line's cells under `stress`.
double page_ber(const WordlineResult& wordline, const StressCondition& stress,
                const VthModel& model, Rng& rng);

/// The program schemes compared in Fig. 4 (plus the unconstrained strawman
/// of Fig. 2a that motivates ordering constraints in the first place).
enum class Scheme { kFps, kRpsFull, kRpsHalf, kRpsRandom, kUnconstrained };

constexpr const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kFps: return "FPS";
    case Scheme::kRpsFull: return "RPSfull";
    case Scheme::kRpsHalf: return "RPShalf";
    case Scheme::kRpsRandom: return "RPSrandom";
    case Scheme::kUnconstrained: return "Unconstrained";
  }
  return "?";
}

/// Generate the program order a scheme uses for one block of `bits`-bit
/// cells (RPShalf: 2-bit only). Random schemes draw a fresh order per block
/// from `rng`.
nand::ProgramOrder make_order(Scheme scheme, std::uint32_t wordlines, std::uint32_t bits,
                              Rng& rng);

struct StudyConfig {
  std::uint32_t blocks = 90;          // the paper verified >90 blocks
  std::uint32_t wordlines = 64;
  std::uint32_t cells_per_wordline = 1024;
  VthModel model = VthModel::mlc();
  StressCondition stress = StressCondition::worst_case();
  std::uint64_t seed = 42;
};

struct StudyResult {
  Scheme scheme;
  SampleSet wpi_per_page;   // ΣWPi of each simulated word line (Fig. 4a)
  SampleSet ber_per_page;   // stressed BER of each word line (Fig. 4b)
  SampleSet aggressors;     // post-MSB aggressor count per word line
};

/// Run the study for one scheme, seeded with `config.seed`.
StudyResult run_study(Scheme scheme, const StudyConfig& config);

/// Run the study for a list of schemes with a shared configuration; each
/// scheme draws from its own stream, seeded `config.seed ^ (scheme << 32)`.
std::vector<StudyResult> run_studies(const std::vector<Scheme>& schemes,
                                     const StudyConfig& config);

}  // namespace rps::reliability
