#include "compiler/dce.h"

#include <algorithm>
#include <set>

#include "compiler/analysis.h"

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
  const std::size_t nblocks = fn.blocks.size();
  using LiveSet = std::set<std::uint16_t>;
  std::vector<LiveSet> live_in(nblocks), live_out(nblocks);

  // Fixed-point backward dataflow over blocks.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = nblocks; b-- > 0;) {
      LiveSet out;
      const auto& term = fn.blocks[b].instrs.back();
      for (auto succ : successors(term)) {
        out.insert(live_in[succ].begin(), live_in[succ].end());
      }
      LiveSet in = out;
      for (auto it = fn.blocks[b].instrs.rbegin();
           it != fn.blocks[b].instrs.rend(); ++it) {
        if (const auto w = reg_written(*it)) in.erase(*w);
        for (auto r : regs_read(*it)) in.insert(r);
      }
      if (out != live_out[b] || in != live_in[b]) {
        live_out[b] = std::move(out);
        live_in[b] = std::move(in);
        changed = true;
      }
    }
  }

  std::size_t removed = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    auto& instrs = fn.blocks[b].instrs;
    LiveSet live = live_out[b];
    std::vector<Instr> kept;
    kept.reserve(instrs.size());
    for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
      const auto w = reg_written(*it);
      const bool dead =
          microc::is_pure(it->op) && w.has_value() && live.count(*w) == 0;
      if (dead) {
        ++removed;
        continue;
      }
      if (w) live.erase(*w);
      for (auto r : regs_read(*it)) live.insert(r);
      kept.push_back(*it);
    }
    std::reverse(kept.begin(), kept.end());
    instrs = std::move(kept);
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
