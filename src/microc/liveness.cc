#include "microc/liveness.h"

#include <algorithm>

namespace lnic::microc {

Liveness liveness(const Function& fn) {
  // At least one past the highest register any instruction names: every
  // operand field counts, whether or not its op reads it as a register.
  std::size_t span = fn.num_regs;
  for (const BasicBlock& block : fn.blocks) {
    for (const Instr& in : block.instrs) {
      std::size_t top = std::max({in.dst, in.a, in.b}) + std::size_t{1};
      if (in.op == Opcode::kCall) top = std::max<std::size_t>(top, in.a + in.b);
      if (in.op == Opcode::kSelect) {
        top = std::max<std::size_t>(top, static_cast<std::uint16_t>(in.imm) + 1u);
      }
      span = std::max(span, top);
    }
  }

  // Each block's own effect: the registers it reads before writing them
  // (gen) and those it writes (kill), from its instructions that can run.
  const std::size_t n = fn.blocks.size();
  std::vector<RegSet> gen(n, RegSet(span));
  std::vector<RegSet> kill(n, RegSet(span));
  for (std::size_t b = 0; b < n; ++b) {
    const std::vector<Instr>& instrs = fn.blocks[b].instrs;
    for (std::size_t i = block_end(fn.blocks[b]); i-- > 0;) {
      const Instr& in = instrs[i];
      if (writes_dst(in.op)) {
        gen[b].reset(in.dst);
        kill[b].set(in.dst);
      }
      for_each_read(in, [&](std::uint32_t reg) { gen[b].set(reg); });
    }
  }

  // Sets only grow from empty, so this reaches the least fixed point;
  // back to front, most blocks settle in one pass.
  Liveness live{std::vector<RegSet>(n, RegSet(span)),
                std::vector<RegSet>(n, RegSet(span))};
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t b = n; b-- > 0;) {
      for_each_successor(fn.blocks, b, [&](std::uint32_t succ) {
        live.live_out[b] |= live.live_in[succ];
      });
      changed |= live.live_in[b].add(live.live_out[b], kill[b], gen[b]);
    }
  }
  return live;
}

}  // namespace lnic::microc
