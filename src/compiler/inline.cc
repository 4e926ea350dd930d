#include "compiler/inline.h"

#include <deque>
#include <set>
#include <vector>

namespace lnic::compiler {

using microc::BasicBlock;
using microc::Function;
using microc::Instr;
using microc::Opcode;
using microc::Program;

namespace {

// A callee is inlinable when its whole body is one block of simple
// instructions ending in kRet — no control flow, no nested calls, no
// external calls (those suspend the machine and must stay call-shaped).
bool inlinable(const Function& fn, std::size_t max_instrs) {
  if (fn.blocks.size() != 1) return false;
  const auto& instrs = fn.blocks[0].instrs;
  if (instrs.empty() || instrs.size() > max_instrs) return false;
  if (instrs.back().op != Opcode::kRet) return false;
  for (std::size_t i = 0; i + 1 < instrs.size(); ++i) {
    const Opcode op = instrs[i].op;
    if (op == Opcode::kCall || op == Opcode::kExtCall ||
        microc::is_terminator(op)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t inline_functions(Program& program, const InlineOptions& options) {
  program.decoded.clear();  // edits the program in place
  std::size_t inlined = 0;
  for (auto& caller : program.functions) {
    for (auto& block : caller.blocks) {
      std::vector<Instr> out;
      out.reserve(block.instrs.size());
      for (const Instr& in : block.instrs) {
        if (in.op != Opcode::kCall) {
          out.push_back(in);
          continue;
        }
        const auto& callee =
            program.functions[static_cast<std::size_t>(in.imm)];
        if (&callee == &caller ||
            !inlinable(callee, options.max_callee_instrs)) {
          out.push_back(in);
          continue;
        }
        // Remap callee registers into fresh caller registers; arguments
        // alias the caller's argument window r[in.a .. in.a+in.b).
        std::vector<std::uint16_t> remap(callee.num_regs);
        for (std::uint16_t r = 0; r < callee.num_regs; ++r) {
          if (r < callee.num_args) {
            remap[r] = static_cast<std::uint16_t>(in.a + r);
          } else {
            remap[r] = caller.num_regs++;
          }
        }
        const auto& body = callee.blocks[0].instrs;
        for (std::size_t k = 0; k + 1 < body.size(); ++k) {
          Instr copy = body[k];
          copy.dst = remap[copy.dst];
          copy.a = remap[copy.a];
          // kCall is excluded by inlinable(); b is always a register here
          // except for kBrIf (also excluded), so remap unconditionally.
          copy.b = remap[copy.b];
          if (copy.op == Opcode::kSelect) {
            copy.imm = remap[static_cast<std::size_t>(copy.imm)];
          }
          out.push_back(copy);
        }
        // kRet value -> the call's destination register.
        const Instr& ret = body.back();
        out.push_back(Instr{.op = Opcode::kMov, .dst = in.dst,
                            .a = remap[ret.a]});
        ++inlined;
      }
      block.instrs = std::move(out);
    }
  }
  return inlined;
}

std::size_t prune_unreachable_functions(Program& program) {
  program.decoded.clear();  // edits the program in place
  if (program.functions.empty()) return 0;
  // Roots: dispatch + lambda entries. Programs not yet assembled have
  // dispatch 0 by default, which may be a lambda; treat every function
  // as a root when there are no entries (nothing provable).
  std::set<std::uint32_t> live;
  std::deque<std::uint32_t> work;
  auto add = [&](std::uint32_t fn) {
    if (fn < program.functions.size() && live.insert(fn).second) {
      work.push_back(fn);
    }
  };
  if (program.lambda_entries.empty()) return 0;
  add(program.dispatch_function);
  for (const auto& [wid, fn] : program.lambda_entries) {
    (void)wid;
    add(fn);
  }
  while (!work.empty()) {
    const auto fn_index = work.front();
    work.pop_front();
    for (const auto& block : program.functions[fn_index].blocks) {
      for (const auto& in : block.instrs) {
        if (in.op == Opcode::kCall) {
          add(static_cast<std::uint32_t>(in.imm));
        }
      }
    }
  }
  if (live.size() == program.functions.size()) return 0;

  std::vector<std::uint32_t> remap(program.functions.size());
  std::vector<Function> kept;
  std::size_t removed = 0;
  for (std::uint32_t i = 0; i < program.functions.size(); ++i) {
    if (live.count(i)) {
      remap[i] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(std::move(program.functions[i]));
    } else {
      ++removed;
    }
  }
  program.functions = std::move(kept);
  for (auto& fn : program.functions) {
    for (auto& block : fn.blocks) {
      for (auto& in : block.instrs) {
        if (in.op == Opcode::kCall) {
          in.imm = remap[static_cast<std::size_t>(in.imm)];
        }
      }
    }
  }
  program.dispatch_function = remap[program.dispatch_function];
  for (auto& [wid, fn] : program.lambda_entries) {
    (void)wid;
    fn = remap[fn];
  }
  return removed;
}

}  // namespace lnic::compiler
