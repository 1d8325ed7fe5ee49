// Analog model of an n-bit NAND cell's threshold-voltage (Vth) behaviour,
// one model for 2-bit MLC and 3-bit TLC cells.
//
// This is the substitute for the paper's silicon measurements (Fig. 4): the
// paper characterized real 2X-nm chips; we model the same mechanisms —
// program-verify placement noise, cell-to-cell coupling from later
// neighbor programs, P/E-cycling widening and retention loss — with
// representative constants. The paper's Fig. 4 claim is *relative*
// (RPS accumulates no more interference than FPS), and that relation is a
// combinatorial property of the program order which the model preserves
// exactly; the constants only scale the axes.
//
// The cell types differ only in data: state means, read references, the
// Gray code and the Vth rises each program pass causes in an aggressor
// cell (`pass_delta`).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace rps::reliability {

/// Most Vth states a modeled cell has (3 bits).
inline constexpr std::size_t kMaxStates = 8;

struct VthModel {
  /// Bits per cell; the cell has 2^bits states.
  std::uint32_t bits = 2;
  /// Nominal post-program state means [V], ascending; state 0 is erased.
  std::array<double, kMaxStates> state_mean{};
  /// Read references between adjacent states [V] (VRef1..VRef3 in Fig. 1).
  std::array<double, kMaxStates - 1> read_ref{};
  /// Gray code of each state: adjacent states differ in one bit.
  std::array<std::uint8_t, kMaxStates> gray{};
  /// Program-verify placement noise (per-cell sigma) for programmed states.
  double sigma_program = 0.11;
  /// Erased-state distribution is wide (erase is coarse).
  double sigma_erased = 0.30;

  /// Cell-to-cell coupling ratio: a neighbor cell's Vth increase of dV
  /// shifts the victim by coupling_ratio * dV.
  double coupling_ratio = 0.08;
  /// pass_delta[p]: the equally likely Vth rises [V] of an aggressor cell
  /// when its word line receives program pass p (random data).
  std::vector<std::vector<double>> pass_delta;

  /// P/E-cycle stress: per-1K-cycle additive sigma (oxide damage widens
  /// distributions) and mean upshift (trapped charge).
  double pe_sigma_per_kcycle = 0.035;
  double pe_mean_shift_per_kcycle = 0.02;

  /// Retention: charge loss moves programmed states down and widens them,
  /// roughly logarithmically in time; coefficients are per log10(1+days).
  double retention_shift_per_decade = 0.12;
  double retention_sigma_per_decade = 0.05;

  [[nodiscard]] std::size_t states() const { return std::size_t{1} << bits; }

  /// 2-bit MLC, Gray order 11,01,00,10 (Fig. 1). An LSB program leaves half
  /// the cells erased and moves the rest to the transient X1 level; the MSB
  /// program keeps '11' erased and drives the others from X1 to their
  /// final state.
  static VthModel mlc() {
    VthModel m;
    m.state_mean = {-2.7, 0.8, 2.0, 3.2};
    m.read_ref = {-0.8, 1.4, 2.6};
    m.gray = {0b11, 0b01, 0b00, 0b10};
    const double x1 = 1.2;  // X1 in Fig. 1, between E and P2
    const std::array<double, kMaxStates>& p = m.state_mean;
    m.pass_delta = {{0.0, x1 - p[0]},
                    {0.0, std::max(0.0, p[1] - x1), std::max(0.0, p[2] - x1), p[3] - x1}};
    return m;
  }

  /// 3-bit TLC: 8 states in the window MLC splits into 4, hence the
  /// tighter pitch and program-verify sigma. Half the aggressor cells move
  /// in each pass (LSB coarse, CSB intermediate, MSB fine). The stress
  /// coefficients are MLC's; TLC studies run at fresh stress.
  static VthModel tlc() {
    VthModel m;
    m.bits = 3;
    m.state_mean = {-2.7, 0.0, 0.8, 1.6, 2.4, 3.2, 4.0, 4.8};
    m.read_ref = {-1.2, 0.4, 1.2, 2.0, 2.8, 3.6, 4.4};
    m.gray = {0b111, 0b110, 0b100, 0b101, 0b001, 0b000, 0b010, 0b011};
    m.sigma_program = 0.07;
    m.pass_delta = {{1.6, 0.0}, {1.2, 0.0}, {0.6, 0.0}};
    return m;
  }
};

/// Stress condition applied before a BER measurement. The paper's
/// worst-case condition is 3K P/E cycles and 1 year of retention.
struct StressCondition {
  double pe_cycles = 0.0;
  double retention_days = 0.0;

  static constexpr StressCondition fresh() { return {0.0, 0.0}; }
  static constexpr StressCondition worst_case() { return {3000.0, 365.0}; }
};

}  // namespace rps::reliability
