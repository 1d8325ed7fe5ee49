#include "src/reliability/study.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace rps::reliability {

double distribution_width(const std::vector<double>& vth) {
  if (vth.size() < 2) return 0.0;
  SampleSet samples;
  samples.add_all(vth);
  return samples.percentile(99.9) - samples.percentile(0.1);
}

std::vector<WordlineResult> simulate_block(const nand::ProgramOrder& order,
                                           const VthModel& model,
                                           std::uint32_t cells_per_wordline, Rng& rng) {
  const std::uint32_t bits = model.bits;
  assert(order.size() % bits == 0 && model.pass_delta.size() == bits);
  const auto wordlines = static_cast<std::uint32_t>(order.size() / bits);

  // Step index of every page (word line k's passes at flat indices
  // k*bits..), then each word line's aggressor passes: neighbor programs
  // landing after its final pass.
  std::vector<std::uint32_t> step_of(order.size(), 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) step_of[order[i].flat_index(bits)] = i;
  std::vector<std::vector<std::uint32_t>> aggressors(wordlines);
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    const std::uint32_t final_step = step_of[k * bits + bits - 1];
    for (const std::int64_t nb : {static_cast<std::int64_t>(k) - 1,
                                  static_cast<std::int64_t>(k) + 1}) {
      if (nb < 0 || nb >= static_cast<std::int64_t>(wordlines)) continue;
      const auto w = static_cast<std::uint32_t>(nb);
      for (std::uint32_t pass = 0; pass < bits; ++pass) {
        if (step_of[w * bits + pass] > final_step) aggressors[k].push_back(pass);
      }
    }
  }

  const std::size_t states = model.states();
  std::vector<WordlineResult> results(wordlines);
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    WordlineResult& out = results[k];
    out.aggressors_after_msb = static_cast<std::uint32_t>(aggressors[k].size());
    for (std::size_t s = 0; s < states; ++s) {
      out.vth_by_state[s].reserve(cells_per_wordline / states + 1);
    }
    for (std::uint32_t cell = 0; cell < cells_per_wordline; ++cell) {
      // Final state: all bit patterns are equally likely for random data.
      const auto state = static_cast<std::size_t>(rng.next_below(states));
      const double sigma = state == 0 ? model.sigma_erased : model.sigma_program;
      double vth = rng.normal(model.state_mean[state], sigma);
      // Each later neighbor program adds coupling_ratio * (that neighbor
      // cell's Vth rise in the pass).
      for (const std::uint32_t pass : aggressors[k]) {
        const std::vector<double>& delta = model.pass_delta[pass];
        vth += model.coupling_ratio * delta[rng.next_below(delta.size())];
      }
      out.vth_by_state[state].push_back(vth);
    }
    for (std::size_t s = 0; s < states; ++s) {
      out.wpi_sum += distribution_width(out.vth_by_state[s]);
    }
  }
  return results;
}

std::uint32_t bit_errors_for_cell(std::size_t state, double vth, const VthModel& model) {
  std::size_t read_state = 0;
  while (read_state + 1 < model.states() && vth > model.read_ref[read_state]) {
    ++read_state;
  }
  return static_cast<std::uint32_t>(
      std::popcount(static_cast<unsigned>(model.gray[state] ^ model.gray[read_state])));
}

double apply_stress(double vth, std::size_t state, const StressCondition& stress,
                    const VthModel& model, Rng& rng) {
  const double kcycles = stress.pe_cycles / 1000.0;
  if (kcycles > 0.0) {
    vth += model.pe_mean_shift_per_kcycle * kcycles;
    vth += rng.normal(0.0, model.pe_sigma_per_kcycle * kcycles);
  }
  if (stress.retention_days > 0.0 && state != 0) {
    // Charge loss scales with how much charge the state holds; normalize by
    // the highest state's level above erased.
    const double level = (model.state_mean[state] - model.state_mean[0]) /
                         (model.state_mean[model.states() - 1] - model.state_mean[0]);
    const double decades = std::log10(1.0 + stress.retention_days);
    vth -= model.retention_shift_per_decade * decades * level;
    vth += rng.normal(0.0, model.retention_sigma_per_decade * decades * level);
  }
  return vth;
}

double page_ber(const WordlineResult& wordline, const StressCondition& stress,
                const VthModel& model, Rng& rng) {
  std::uint64_t bit_errors = 0;
  std::uint64_t bits = 0;
  for (std::size_t state = 0; state < model.states(); ++state) {
    for (const double vth : wordline.vth_by_state[state]) {
      const double stressed = apply_stress(vth, state, stress, model, rng);
      bit_errors += bit_errors_for_cell(state, stressed, model);
      bits += model.bits;
    }
  }
  return bits == 0 ? 0.0 : static_cast<double>(bit_errors) / static_cast<double>(bits);
}

nand::ProgramOrder make_order(Scheme scheme, std::uint32_t wordlines, std::uint32_t bits,
                              Rng& rng) {
  switch (scheme) {
    case Scheme::kFps: return nand::fps_order(wordlines, bits);
    case Scheme::kRpsFull: return nand::rps_full_order(wordlines, bits);
    case Scheme::kRpsHalf: assert(bits == 2); return nand::rps_half_order(wordlines);
    case Scheme::kRpsRandom: return nand::random_rps_order(wordlines, rng, bits);
    case Scheme::kUnconstrained: return nand::random_unconstrained_order(wordlines, rng, bits);
  }
  return nand::fps_order(wordlines, bits);
}

StudyResult run_study(Scheme scheme, const StudyConfig& config) {
  Rng rng(config.seed);
  StudyResult result;
  result.scheme = scheme;
  const std::size_t pages = static_cast<std::size_t>(config.blocks) * config.wordlines;
  result.wpi_per_page.reserve(pages);
  result.ber_per_page.reserve(pages);
  result.aggressors.reserve(pages);

  for (std::uint32_t b = 0; b < config.blocks; ++b) {
    const nand::ProgramOrder order =
        make_order(scheme, config.wordlines, config.model.bits, rng);
    for (const WordlineResult& wl :
         simulate_block(order, config.model, config.cells_per_wordline, rng)) {
      result.wpi_per_page.add(wl.wpi_sum);
      result.ber_per_page.add(page_ber(wl, config.stress, config.model, rng));
      result.aggressors.add(static_cast<double>(wl.aggressors_after_msb));
    }
  }
  return result;
}

std::vector<StudyResult> run_studies(const std::vector<Scheme>& schemes,
                                     const StudyConfig& config) {
  std::vector<StudyResult> results;
  results.reserve(schemes.size());
  for (const Scheme scheme : schemes) {
    StudyConfig own = config;
    own.seed ^= static_cast<std::uint64_t>(scheme) << 32;
    results.push_back(run_study(scheme, own));
  }
  return results;
}

}  // namespace rps::reliability
