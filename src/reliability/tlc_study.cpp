#include "src/reliability/tlc_study.hpp"

#include <cassert>

#include "src/reliability/interference.hpp"  // distribution_width

namespace rps::reliability {

std::uint8_t tlc_gray(std::size_t state) {
  // Standard 3-bit binary-reflected Gray code: adjacent states differ in
  // exactly one bit, so an adjacent misread costs one bit error.
  static constexpr std::uint8_t kGray[kTlcStates] = {0b111, 0b110, 0b100, 0b101,
                                                     0b001, 0b000, 0b010, 0b011};
  return kGray[state];
}

std::uint32_t tlc_bit_errors_for_cell(std::size_t state, double vth,
                                      const TlcVthModel& model) {
  std::size_t read_state = 0;
  while (read_state < kTlcStates - 1 && vth > model.read_ref[read_state]) {
    ++read_state;
  }
  const std::uint8_t diff = tlc_gray(state) ^ tlc_gray(read_state);
  return static_cast<std::uint32_t>((diff & 1u) + ((diff >> 1) & 1u) +
                                    ((diff >> 2) & 1u));
}

std::vector<TlcWordlineResult> simulate_tlc_block(const nand::ProgramOrder& order,
                                                  std::uint32_t wordlines,
                                                  const TlcStudyConfig& config,
                                                  Rng& rng) {
  assert(order.size() == static_cast<std::size_t>(wordlines) * 3);
  const TlcVthModel& m = config.model;

  // Step index of every page, then the aggressor pass list per word line:
  // neighbor programs landing after the word line's final (MSB) pass.
  // Flat indices (flat_index(3)) put word line k's passes at 3k..3k+2.
  std::vector<std::uint32_t> step_of(wordlines * 3, 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    step_of[order[i].flat_index(3)] = i;
  }
  std::vector<std::vector<std::size_t>> aggressors(wordlines);
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    const std::uint32_t final_step = step_of[k * 3 + 2];
    for (const std::int64_t nb : {static_cast<std::int64_t>(k) - 1,
                                  static_cast<std::int64_t>(k) + 1}) {
      if (nb < 0 || nb >= static_cast<std::int64_t>(wordlines)) continue;
      const auto w = static_cast<std::uint32_t>(nb);
      for (std::size_t pass = 0; pass < 3; ++pass) {
        if (step_of[w * 3 + pass] > final_step) aggressors[k].push_back(pass);
      }
    }
  }

  std::vector<TlcWordlineResult> results(wordlines);
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    TlcWordlineResult& out = results[k];
    out.aggressors_after_final = static_cast<std::uint32_t>(aggressors[k].size());
    std::uint64_t bit_errors = 0;
    for (std::uint32_t cell = 0; cell < config.cells_per_wordline; ++cell) {
      const auto state = static_cast<std::size_t>(rng.next_below(kTlcStates));
      const double sigma = state == 0 ? m.sigma_erased : m.sigma_program;
      double vth = rng.normal(m.state_mean[state], sigma);
      for (const std::size_t pass : aggressors[k]) {
        // Half the aggressor cells move in a given pass for random data.
        if (rng.chance(0.5)) vth += m.coupling_ratio * m.pass_delta[pass];
      }
      out.vth_by_state[state].push_back(vth);
      bit_errors += tlc_bit_errors_for_cell(state, vth, m);
    }
    for (const auto& v : out.vth_by_state) out.wpi_sum += distribution_width(v);
    out.ber = static_cast<double>(bit_errors) /
              (3.0 * static_cast<double>(config.cells_per_wordline));
  }
  return results;
}

TlcStudyResult run_tlc_study(TlcScheme scheme, std::uint32_t blocks,
                             std::uint32_t wordlines, const TlcStudyConfig& config,
                             std::uint64_t seed) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(scheme) << 40));
  TlcStudyResult result;
  result.scheme = scheme;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    nand::ProgramOrder order;
    switch (scheme) {
      case TlcScheme::kFps: order = nand::fps_order(wordlines, 3); break;
      case TlcScheme::kRpsFull: order = nand::rps_full_order(wordlines, 3); break;
      case TlcScheme::kRpsRandom: order = nand::random_rps_order(wordlines, rng, 3); break;
      case TlcScheme::kUnconstrained:
        order = nand::random_unconstrained_order(wordlines, rng, 3);
        break;
    }
    for (const TlcWordlineResult& wl :
         simulate_tlc_block(order, wordlines, config, rng)) {
      result.wpi_per_page.add(wl.wpi_sum);
      result.ber_per_page.add(wl.ber);
      result.aggressors.add(static_cast<double>(wl.aggressors_after_final));
    }
  }
  return result;
}

}  // namespace rps::reliability
