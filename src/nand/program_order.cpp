#include "src/nand/program_order.hpp"

#include <algorithm>
#include <cassert>

namespace rps::nand {

std::vector<PagePos> legal_programs(const BlockProgramState& block, SequenceKind kind) {
  std::vector<PagePos> legal;
  for (std::uint32_t k = 0; k < block.wordlines(); ++k) {
    for (std::uint32_t p = 0; p < block.bits(); ++p) {
      const PagePos pos{k, type_of_pass(p, block.bits())};
      if (check_program_legality(block, pos, kind).is_ok()) legal.push_back(pos);
    }
  }
  return legal;
}

ProgramOrder fps_order(std::uint32_t wordlines, std::uint32_t bits) {
  assert(wordlines >= 2);
  ProgramOrder order;
  order.reserve(wordlines * bits);
  // Diagonal d holds pass p of WL(d - p), in ascending pass order.
  for (std::uint32_t d = 0; d + 1 < wordlines + bits; ++d) {
    for (std::uint32_t p = 0; p < bits && p <= d; ++p) {
      if (d - p < wordlines) order.push_back({d - p, type_of_pass(p, bits)});
    }
  }
  return order;
}

ProgramOrder rps_full_order(std::uint32_t wordlines, std::uint32_t bits) {
  ProgramOrder order;
  order.reserve(wordlines * bits);
  for (std::uint32_t p = 0; p < bits; ++p) {
    for (std::uint32_t k = 0; k < wordlines; ++k) order.push_back({k, type_of_pass(p, bits)});
  }
  return order;
}

ProgramOrder rps_half_order(std::uint32_t wordlines) {
  assert(wordlines >= 2);
  ProgramOrder order;
  order.reserve(wordlines * 2);
  const std::uint32_t half = wordlines / 2 + 1;  // LSB frontier head start
  std::uint32_t next_lsb = 0;
  std::uint32_t next_msb = 0;
  for (; next_lsb < std::min(half, wordlines); ++next_lsb) {
    order.push_back({next_lsb, PageType::kLsb});
  }
  // Interleave the remaining LSB pages with MSB programs; C3 holds because
  // the LSB frontier stays at least one word line ahead of the MSB frontier.
  while (next_msb < wordlines) {
    order.push_back({next_msb, PageType::kMsb});
    ++next_msb;
    if (next_lsb < wordlines) {
      order.push_back({next_lsb, PageType::kLsb});
      ++next_lsb;
    }
  }
  return order;
}

namespace {

ProgramOrder random_order_under(std::uint32_t wordlines, std::uint32_t bits,
                                SequenceKind kind, Rng& rng) {
  BlockProgramState block(wordlines, bits);
  ProgramOrder order;
  order.reserve(wordlines * bits);
  for (std::uint32_t step = 0; step < wordlines * bits; ++step) {
    const std::vector<PagePos> legal = legal_programs(block, kind);
    assert(!legal.empty());
    const PagePos pick = legal[rng.next_below(legal.size())];
    block.mark_programmed(pick);
    order.push_back(pick);
  }
  return order;
}

}  // namespace

ProgramOrder random_rps_order(std::uint32_t wordlines, Rng& rng, std::uint32_t bits) {
  return random_order_under(wordlines, bits, SequenceKind::kRps, rng);
}

ProgramOrder random_unconstrained_order(std::uint32_t wordlines, Rng& rng,
                                        std::uint32_t bits) {
  return random_order_under(wordlines, bits, SequenceKind::kUnconstrained, rng);
}

bool order_satisfies(const ProgramOrder& order, std::uint32_t wordlines, SequenceKind kind,
                     std::uint32_t bits) {
  if (order.size() != static_cast<std::size_t>(wordlines) * bits) return false;
  BlockProgramState block(wordlines, bits);
  for (const PagePos pos : order) {
    if (!check_program_legality(block, pos, kind).is_ok()) return false;
    block.mark_programmed(pos);
  }
  return true;
}

std::vector<WordlineExposure> analyze_exposure(const ProgramOrder& order,
                                               std::uint32_t wordlines,
                                               std::uint32_t bits) {
  // step_of[x] = position of page x (flat index) in the order.
  std::vector<std::uint32_t> step_of(static_cast<std::size_t>(wordlines) * bits, 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) step_of[order[i].flat_index(bits)] = i;
  std::vector<WordlineExposure> exposure(wordlines);
  for (std::uint32_t k = 0; k < wordlines; ++k) {
    const std::uint32_t first = step_of[k * bits];
    const std::uint32_t last = step_of[k * bits + bits - 1];
    for (const std::int64_t nb : {static_cast<std::int64_t>(k) - 1,
                                  static_cast<std::int64_t>(k) + 1}) {
      if (nb < 0 || nb >= static_cast<std::int64_t>(wordlines)) continue;
      for (std::uint32_t p = 0; p < bits; ++p) {
        const std::uint32_t step = step_of[static_cast<std::uint32_t>(nb) * bits + p];
        if (step > last) ++exposure[k].aggressors_after_msb;
        if (step > first && step < last) ++exposure[k].aggressors_on_lsb;
      }
    }
  }
  return exposure;
}

}  // namespace rps::nand
