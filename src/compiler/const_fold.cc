#include "compiler/const_fold.h"

#include <map>
#include <optional>

#include "compiler/analysis.h"

namespace lnic::compiler {

using microc::Instr;
using microc::Opcode;

namespace {

// Evaluates a two-operand ALU op exactly as the interpreter does.
std::optional<std::uint64_t> eval(Opcode op, std::uint64_t a,
                                  std::uint64_t b) {
  switch (op) {
    case Opcode::kAdd: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kMul: return a * b;
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kShl: return a << (b & 63);
    case Opcode::kShr: return a >> (b & 63);
    case Opcode::kCmpEq: return static_cast<std::uint64_t>(a == b);
    case Opcode::kCmpNe: return static_cast<std::uint64_t>(a != b);
    case Opcode::kCmpLtU: return static_cast<std::uint64_t>(a < b);
    case Opcode::kCmpLeU: return static_cast<std::uint64_t>(a <= b);
    case Opcode::kDivU:
      if (b == 0) return std::nullopt;  // runtime trap, not foldable
      return a / b;
    case Opcode::kRemU:
      if (b == 0) return std::nullopt;
      return a % b;
    case Opcode::kFxMul: {
      const std::int64_t sa = static_cast<std::int32_t>(a);
      const std::int64_t sb = static_cast<std::int32_t>(b);
      return static_cast<std::uint64_t>(
          static_cast<std::uint32_t>((sa * sb) >> 16));
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::size_t fold_constants(microc::Program& program) {
  program.decoded.clear();  // edits the program in place
  std::size_t rewritten = 0;
  for (auto& fn : program.functions) {
    for (auto& block : fn.blocks) {
      // Known constants are tracked per block only (no cross-block
      // dataflow); any other write invalidates the register.
      std::map<std::uint16_t, std::uint64_t> known;
      for (auto& in : block.instrs) {
        auto value_of = [&](std::uint16_t r) -> std::optional<std::uint64_t> {
          const auto it = known.find(r);
          if (it == known.end()) return std::nullopt;
          return it->second;
        };
        std::optional<std::uint64_t> folded;
        switch (in.op) {
          case Opcode::kConst:
            known[in.dst] = static_cast<std::uint64_t>(in.imm);
            continue;
          case Opcode::kMov:
            if (const auto v = value_of(in.a)) folded = *v;
            break;
          case Opcode::kAddImm:
            if (const auto v = value_of(in.a)) {
              folded = *v + static_cast<std::uint64_t>(in.imm);
            }
            break;
          case Opcode::kMulImm:
            if (const auto v = value_of(in.a)) {
              folded = *v * static_cast<std::uint64_t>(in.imm);
            }
            break;
          case Opcode::kCmpEqImm:
            if (const auto v = value_of(in.a)) {
              folded = static_cast<std::uint64_t>(
                  *v == static_cast<std::uint64_t>(in.imm));
            }
            break;
          case Opcode::kSelect:
            if (const auto c = value_of(in.a)) {
              const auto picked =
                  *c ? value_of(in.b)
                     : value_of(static_cast<std::uint16_t>(in.imm));
              if (picked) folded = *picked;
            }
            break;
          default:
            if (microc::is_pure(in.op)) {
              const auto a = value_of(in.a);
              const auto b = value_of(in.b);
              if (a && b) folded = eval(in.op, *a, *b);
            }
            break;
        }
        if (folded.has_value()) {
          in = Instr{.op = Opcode::kConst, .dst = in.dst,
                     .imm = static_cast<std::int64_t>(*folded)};
          known[in.dst] = *folded;
          ++rewritten;
          continue;
        }
        // Not folded: any written register becomes unknown.
        if (const auto w = reg_written(in)) known.erase(*w);
      }
    }
  }
  return rewritten;
}

}  // namespace lnic::compiler
