#include "microc/verify.h"

#include <string>
#include <vector>

namespace lnic::microc {

namespace {
Error err(const std::string& fn, const std::string& what) {
  return make_error("verify: function '" + fn + "': " + what);
}

// DFS cycle detection over the call graph: NPUs have no stack for
// recursion (§3.1b), so any call cycle is a compile-time error.
bool has_call_cycle(const Program& program, std::size_t fn,
                    std::vector<std::uint8_t>& state) {
  state[fn] = 1;  // visiting
  for (const auto& block : program.functions[fn].blocks) {
    for (const auto& in : block.instrs) {
      if (in.op != Opcode::kCall) continue;
      const auto callee = static_cast<std::size_t>(in.imm);
      if (callee >= program.functions.size()) continue;  // checked elsewhere
      if (state[callee] == 1) return true;
      if (state[callee] == 0 && has_call_cycle(program, callee, state)) {
        return true;
      }
    }
  }
  state[fn] = 2;  // done
  return false;
}
}  // namespace

Status verify(const Program& program) {
  const auto num_functions = program.functions.size();
  const auto num_objects = program.objects.size();

  if (program.dispatch_function >= num_functions) {
    return make_error("verify: dispatch function index out of range");
  }
  for (const auto& [wid, fn_index] : program.lambda_entries) {
    (void)wid;
    if (fn_index >= num_functions) {
      return make_error("verify: lambda entry references missing function");
    }
  }

  // Every object gets real backing (globals in the ObjectStore, locals in
  // each Machine), so together they must fit the card's EMEM. Comparing
  // each size with what is left cannot wrap, as a running sum could.
  Bytes emem_left = kEmemCapacity;
  for (const MemObject& obj : program.objects) {
    if (obj.size > emem_left) {
      return make_error("verify: object '" + obj.name + "' of " +
                        std::to_string(obj.size) + " bytes exceeds EMEM (" +
                        std::to_string(emem_left) + " of " +
                        std::to_string(kEmemCapacity) + " bytes left)");
    }
    emem_left -= obj.size;
  }

  // Recursion (direct or mutual) is unsupported on NPUs (§3.1b).
  {
    std::vector<std::uint8_t> state(program.functions.size(), 0);
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
      if (state[i] == 0 && has_call_cycle(program, i, state)) {
        return err(program.functions[i].name,
                   "participates in a call cycle (recursion unsupported)");
      }
    }
  }

  for (const auto& fn : program.functions) {
    if (fn.blocks.empty()) return err(fn.name, "has no blocks");
    if (fn.num_args > fn.num_regs) {
      return err(fn.name, "more args than registers");
    }
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const auto& block = fn.blocks[bi];
      if (block.instrs.empty()) {
        return err(fn.name, "block " + std::to_string(bi) + " is empty");
      }
      for (std::size_t ii = 0; ii < block.instrs.size(); ++ii) {
        const Instr& in = block.instrs[ii];
        const bool last = ii + 1 == block.instrs.size();
        if (is_terminator(in.op) != last) {
          return err(fn.name, "terminator placement in block " +
                                  std::to_string(bi));
        }
        auto reg_ok = [&](std::uint16_t r) { return r < fn.num_regs; };
        if (!reg_ok(in.dst) || !reg_ok(in.a) || !reg_ok(in.b)) {
          // kBr/kBrIf reuse b/imm as block indices; check those separately.
          if (in.op != Opcode::kBr && in.op != Opcode::kBrIf) {
            return err(fn.name, "register index out of range at " +
                                    std::string(to_string(in.op)));
          }
        }
        // kSelect keeps its third register index in imm.
        if (in.op == Opcode::kSelect && (in.imm < 0 || in.imm >= fn.num_regs)) {
          return err(fn.name, "register index out of range at select");
        }
        if (is_memory_op(in.op)) {
          if (in.obj >= num_objects) {
            return err(fn.name, "object index out of range");
          }
          if ((in.op == Opcode::kMemCpy || in.op == Opcode::kGrayscale) &&
              in.obj2 >= num_objects) {
            return err(fn.name, "source object index out of range");
          }
        }
        if (in.op == Opcode::kLoad || in.op == Opcode::kStore) {
          if (in.width != 1 && in.width != 2 && in.width != 4 &&
              in.width != 8) {
            return err(fn.name, "bad access width");
          }
        }
        if (in.op == Opcode::kBr) {
          if (in.imm < 0 ||
              static_cast<std::size_t>(in.imm) >= fn.blocks.size()) {
            return err(fn.name, "branch target out of range");
          }
        }
        if (in.op == Opcode::kBrIf) {
          if (in.imm < 0 ||
              static_cast<std::size_t>(in.imm) >= fn.blocks.size() ||
              in.b >= fn.blocks.size()) {
            return err(fn.name, "conditional branch target out of range");
          }
          if (in.a >= fn.num_regs) {
            return err(fn.name, "condition register out of range");
          }
        }
        if (in.op == Opcode::kCall) {
          if (in.imm < 0 ||
              static_cast<std::size_t>(in.imm) >= num_functions) {
            return err(fn.name, "call target out of range");
          }
          const auto& callee = program.functions[static_cast<std::size_t>(in.imm)];
          if (in.b != callee.num_args) {
            return err(fn.name, "call to '" + callee.name +
                                    "' passes wrong argument count");
          }
          if (in.b > 0 && static_cast<std::uint32_t>(in.a) + in.b > fn.num_regs) {
            return err(fn.name, "call argument window exceeds registers");
          }
        }
        if (in.op == Opcode::kLoadHdr) {
          if (in.imm < 0 || in.imm >= kHdrFieldCount) {
            return err(fn.name, "header field out of range");
          }
        }
      }
    }
  }
  return Status::ok_status();
}

}  // namespace lnic::microc
