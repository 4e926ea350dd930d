// Register liveness: which registers a function may still read when each
// of its blocks begins and ends, from one backward dataflow over bitsets.
// Compiler DCE drops pure instructions whose result is dead; decode()
// stores only the fused-chain writes a later step reads, and zeroes only
// the registers a new frame may read before writing them (DESIGN.md §17).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "microc/ir.h"

namespace lnic::microc {

/// A set of registers, one bit each, over a fixed register span.
class RegSet {
 public:
  explicit RegSet(std::size_t regs) : words_((regs + 63) / 64, 0) {}

  bool test(std::uint32_t reg) const {
    return (words_[reg / 64] >> (reg % 64) & 1) != 0;
  }
  void set(std::uint32_t reg) {
    words_[reg / 64] |= std::uint64_t{1} << (reg % 64);
  }
  void reset(std::uint32_t reg) {
    words_[reg / 64] &= ~(std::uint64_t{1} << (reg % 64));
  }
  /// Adds the members of `other`, which spans what this set does.
  RegSet& operator|=(const RegSet& other) {
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
    return *this;
  }
  /// Adds the members of `through` that are not in `kill`, then those of
  /// `gen`; all three span what this set does. Returns whether it grew.
  bool add(const RegSet& through, const RegSet& kill, const RegSet& gen) {
    std::uint64_t grew = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t next =
          words_[w] | (through.words_[w] & ~kill.words_[w]) | gen.words_[w];
      grew |= next ^ words_[w];
      words_[w] = next;
    }
    return grew != 0;
  }

  /// Calls f(reg) for each member, in ascending order.
  template <class F>
  void for_each(F f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<std::uint32_t>(64 * w + std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Calls f(reg) for each register `in` reads. kMemCpy, kGrayscale and
/// kBodyCopy read their `dst` (it names the destination-offset register),
/// and kSelect reads the register its `imm` names.
template <class F>
void for_each_read(const Instr& in, F f) {
  switch (in.op) {
    case Opcode::kConst:
    case Opcode::kLoadHdr:
    case Opcode::kBodyLen:
    case Opcode::kLoadMatch:
    case Opcode::kBr:
      return;
    case Opcode::kMov:
    case Opcode::kAddImm:
    case Opcode::kMulImm:
    case Opcode::kCmpEqImm:
    case Opcode::kLoadBody:
    case Opcode::kLoad:
    case Opcode::kRespByte:
    case Opcode::kRespWord:
    case Opcode::kBrIf:
    case Opcode::kRet:
      f(in.a);
      return;
    case Opcode::kSelect:
      f(static_cast<std::uint16_t>(in.imm));
      [[fallthrough]];
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDivU:
    case Opcode::kRemU:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kFxMul:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kCmpLtU:
    case Opcode::kCmpLeU:
    case Opcode::kStore:
    case Opcode::kRespMem:
    case Opcode::kHash:
    case Opcode::kExtCall:
      f(in.a);
      f(in.b);
      return;
    case Opcode::kMemCpy:
    case Opcode::kGrayscale:
    case Opcode::kBodyCopy:
      f(in.dst);
      f(in.a);
      f(in.b);
      return;
    case Opcode::kCall:
      for (std::uint32_t i = 0; i < in.b; ++i) f(in.a + i);
      return;
  }
}

/// True when `op` writes register `dst`: every op but stores, responses,
/// the copy intrinsics and branches. kCall writes it when the callee
/// returns, kExtCall when the reply arrives.
inline bool writes_dst(Opcode op) {
  switch (op) {
    case Opcode::kStore:
    case Opcode::kRespByte:
    case Opcode::kRespWord:
    case Opcode::kRespMem:
    case Opcode::kMemCpy:
    case Opcode::kGrayscale:
    case Opcode::kBodyCopy:
    case Opcode::kBr:
    case Opcode::kBrIf:
    case Opcode::kRet:
      return false;
    default:
      return true;
  }
}

/// The instructions of `block` that can run: up to and including its
/// first terminator. A block without one falls off its end and traps.
inline std::size_t block_end(const BasicBlock& block) {
  const std::vector<Instr>& instrs = block.instrs;
  for (std::size_t i = 0; i < instrs.size(); ++i) {
    if (is_terminator(instrs[i].op)) return i + 1;
  }
  return instrs.size();
}

/// Calls f(block) for each block the terminator at block_end(blocks[b]) - 1
/// branches to. A target past the last block is no successor: decode()
/// sends it to a step that traps.
template <class F>
void for_each_successor(const std::vector<BasicBlock>& blocks, std::size_t b,
                        F f) {
  const std::size_t end = block_end(blocks[b]);
  if (end == 0) return;
  const Instr& term = blocks[b].instrs[end - 1];
  const auto target = [&](std::int64_t block) {
    if (block >= 0 && static_cast<std::uint64_t>(block) < blocks.size()) {
      f(static_cast<std::uint32_t>(block));
    }
  };
  if (term.op == Opcode::kBr) {
    target(term.imm);
  } else if (term.op == Opcode::kBrIf) {
    target(term.imm);
    target(term.b);
  }
}

/// Per block of a function, the registers live when it begins and ends:
/// those some path on from there reads before writing.
struct Liveness {
  std::vector<RegSet> live_in;
  std::vector<RegSet> live_out;
};

/// Solves liveness for `fn`. The sets span every register an instruction
/// names, so a program that was never verified, whose operands may pass
/// num_regs, is analysed as it would run.
Liveness liveness(const Function& fn);

}  // namespace lnic::microc
