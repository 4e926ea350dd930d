#include "compiler/dce.h"

#include <algorithm>

#include "compiler/analysis.h"
#include "microc/liveness.h"

namespace lnic::compiler {

using microc::Function;
using microc::Instr;
using microc::Opcode;

namespace {

// Removes unreachable blocks and remaps branch targets. Returns
// instructions removed.
std::size_t remove_unreachable_blocks(Function& fn) {
  const auto reachable = reachable_blocks(fn);
  if (std::all_of(reachable.begin(), reachable.end(),
                  [](bool r) { return r; })) {
    return 0;
  }
  std::vector<std::uint32_t> remap(fn.blocks.size());
  std::vector<microc::BasicBlock> kept;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < fn.blocks.size(); ++i) {
    if (reachable[i]) {
      remap[i] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(std::move(fn.blocks[i]));
    } else {
      removed += fn.blocks[i].instrs.size();
    }
  }
  fn.blocks = std::move(kept);
  for (auto& block : fn.blocks) {
    Instr& term = block.instrs.back();
    if (term.op == Opcode::kBr) {
      term.imm = remap[static_cast<std::size_t>(term.imm)];
    } else if (term.op == Opcode::kBrIf) {
      term.imm = remap[static_cast<std::size_t>(term.imm)];
      term.b = static_cast<std::uint16_t>(remap[term.b]);
    }
  }
  return removed;
}

// One liveness-based sweep; returns instructions removed.
std::size_t sweep_dead_instructions(Function& fn) {
  const microc::Liveness live_sets = microc::liveness(fn);
  std::size_t removed = 0;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    auto& instrs = fn.blocks[b].instrs;
    microc::RegSet live = live_sets.live_out[b];
    std::vector<bool> dead(instrs.size(), false);
    for (std::size_t i = microc::block_end(fn.blocks[b]); i-- > 0;) {
      const Instr& in = instrs[i];
      if (microc::is_pure(in.op) && !live.test(in.dst)) {
        dead[i] = true;
        continue;
      }
      if (microc::writes_dst(in.op)) live.reset(in.dst);
      microc::for_each_read(in, [&live](std::uint32_t reg) { live.set(reg); });
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
      if (!dead[i]) instrs[kept++] = instrs[i];
    }
    removed += instrs.size() - kept;
    instrs.resize(kept);
  }
  return removed;
}

}  // namespace

std::size_t eliminate_dead_code(microc::Program& program) {
  program.decoded.clear();  // edits the program in place
  std::size_t removed = 0;
  for (auto& fn : program.functions) {
    removed += remove_unreachable_blocks(fn);
    // Iterate sweeps to a fixed point: removing one instruction can make
    // its operands dead.
    while (true) {
      const std::size_t swept = sweep_dead_instructions(fn);
      removed += swept;
      if (swept == 0) break;
    }
  }
  return removed;
}

}  // namespace lnic::compiler
