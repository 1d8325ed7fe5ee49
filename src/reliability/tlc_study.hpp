// Reliability model for the TLC extension: 8 Vth states, 3-bit Gray
// coding, and cell-to-cell coupling from post-final-pass aggressor
// programs — the Fig. 4 methodology applied to the TLC (3-pass) orders of
// src/nand/program_order.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/nand/program_order.hpp"
#include "src/util/random.hpp"
#include "src/util/stats.hpp"

namespace rps::reliability {

inline constexpr std::size_t kTlcStates = 8;

struct TlcVthModel {
  /// Nominal post-program state means [V]; TLC packs 8 states into the
  /// same window MLC splits into 4, hence the tighter pitch.
  std::array<double, kTlcStates> state_mean{-2.7, 0.0, 0.8, 1.6,
                                            2.4,  3.2, 4.0, 4.8};
  std::array<double, kTlcStates - 1> read_ref{-1.2, 0.4, 1.2, 2.0, 2.8, 3.6, 4.4};
  double sigma_program = 0.07;  // tighter program-verify than MLC
  double sigma_erased = 0.30;
  double coupling_ratio = 0.08;
  /// Mean Vth increase an aggressor page program causes in its own cells,
  /// per pass (LSB coarse, CSB intermediate, MSB fine).
  std::array<double, 3> pass_delta{1.6, 1.2, 0.6};

  static constexpr TlcVthModel nominal() { return TlcVthModel{}; }
};

/// 3-bit Gray code of each state (LSB/CSB/MSB bits).
std::uint8_t tlc_gray(std::size_t state);

/// Bit errors when a cell programmed to `state` reads back at `vth`.
std::uint32_t tlc_bit_errors_for_cell(std::size_t state, double vth,
                                      const TlcVthModel& model);

struct TlcWordlineResult {
  std::array<std::vector<double>, kTlcStates> vth_by_state;
  double wpi_sum = 0.0;  // sum of the 8 per-state p0.1..p99.9 widths
  double ber = 0.0;      // fresh-condition bit error rate
  std::uint32_t aggressors_after_final = 0;
};

struct TlcStudyConfig {
  std::uint32_t cells_per_wordline = 512;
  TlcVthModel model = TlcVthModel::nominal();
};

/// Program one TLC block under `order` (3 pages per word line),
/// Monte-Carlo per cell.
std::vector<TlcWordlineResult> simulate_tlc_block(const nand::ProgramOrder& order,
                                                  std::uint32_t wordlines,
                                                  const TlcStudyConfig& config,
                                                  Rng& rng);

enum class TlcScheme { kFps, kRpsFull, kRpsRandom, kUnconstrained };

constexpr const char* to_string(TlcScheme scheme) {
  switch (scheme) {
    case TlcScheme::kFps: return "TLC-FPS";
    case TlcScheme::kRpsFull: return "TLC-RPSfull";
    case TlcScheme::kRpsRandom: return "TLC-RPSrandom";
    case TlcScheme::kUnconstrained: return "TLC-Unconstrained";
  }
  return "?";
}

struct TlcStudyResult {
  TlcScheme scheme;
  SampleSet wpi_per_page;
  SampleSet ber_per_page;
  SampleSet aggressors;
};

TlcStudyResult run_tlc_study(TlcScheme scheme, std::uint32_t blocks,
                             std::uint32_t wordlines, const TlcStudyConfig& config,
                             std::uint64_t seed);

}  // namespace rps::reliability
