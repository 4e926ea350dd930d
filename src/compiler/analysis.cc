#include "compiler/analysis.h"

#include <deque>

namespace lnic::compiler {

using microc::Instr;
using microc::Opcode;

std::vector<std::uint16_t> regs_read(const Instr& in) {
  switch (in.op) {
    case Opcode::kConst:
    case Opcode::kLoadHdr:
    case Opcode::kBodyLen:
    case Opcode::kLoadMatch:
    case Opcode::kBr:
      return {};
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
      return {in.a};
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
      return {in.a, in.b};
    case Opcode::kSelect:
      return {in.a, in.b, static_cast<std::uint16_t>(in.imm)};
    case Opcode::kMemCpy:
    case Opcode::kGrayscale:
    case Opcode::kBodyCopy:
      return {in.dst, in.a, in.b};
    case Opcode::kCall: {
      std::vector<std::uint16_t> regs;
      for (std::uint16_t i = 0; i < in.b; ++i) {
        regs.push_back(static_cast<std::uint16_t>(in.a + i));
      }
      return regs;
    }
  }
  return {};
}

std::optional<std::uint16_t> reg_written(const Instr& in) {
  switch (in.op) {
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
      return std::nullopt;
    default:
      return in.dst;
  }
}

std::vector<std::uint32_t> successors(const Instr& terminator) {
  switch (terminator.op) {
    case Opcode::kBr:
      return {static_cast<std::uint32_t>(terminator.imm)};
    case Opcode::kBrIf:
      return {static_cast<std::uint32_t>(terminator.imm), terminator.b};
    default:
      return {};
  }
}

std::vector<bool> reachable_blocks(const microc::Function& fn) {
  std::vector<bool> seen(fn.blocks.size(), false);
  std::deque<std::uint32_t> work{0};
  seen[0] = true;
  while (!work.empty()) {
    const auto b = work.front();
    work.pop_front();
    const auto& instrs = fn.blocks[b].instrs;
    if (instrs.empty()) continue;
    for (auto succ : successors(instrs.back())) {
      if (succ < seen.size() && !seen[succ]) {
        seen[succ] = true;
        work.push_back(succ);
      }
    }
  }
  return seen;
}

void estimate_object_accesses(microc::Program& program) {
  program.decoded.clear();  // edits the program in place
  for (auto& obj : program.objects) obj.access_estimate = 0;
  for (const auto& fn : program.functions) {
    for (const auto& block : fn.blocks) {
      for (const auto& in : block.instrs) {
        if (microc::is_memory_op(in.op)) {
          if (in.obj < program.objects.size()) {
            ++program.objects[in.obj].access_estimate;
          }
          if ((in.op == Opcode::kMemCpy || in.op == Opcode::kGrayscale) &&
              in.obj2 < program.objects.size()) {
            ++program.objects[in.obj2].access_estimate;
          }
        }
      }
    }
  }
}

}  // namespace lnic::compiler
