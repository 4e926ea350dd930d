#include "compiler/coalesce.h"

#include <vector>

namespace lnic::compiler {

using microc::Function;
using microc::Opcode;
using microc::Program;

namespace {

// Structural equality of bodies. Function names are irrelevant; the
// instruction streams (including object and call references) must match.
bool same_body(const Function& a, const Function& b) {
  if (a.num_args != b.num_args) return false;
  if (a.blocks.size() != b.blocks.size()) return false;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].instrs != b.blocks[i].instrs) return false;
  }
  return true;
}

}  // namespace

std::size_t coalesce_lambdas(Program& program) {
  program.decoded.clear();  // edits the program in place
  const std::size_t n = program.functions.size();
  // canonical[i] = index of the representative of i's equivalence class.
  std::vector<std::uint32_t> canonical(n);
  for (std::size_t i = 0; i < n; ++i) {
    canonical[i] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (canonical[j] == j &&
          same_body(program.functions[i], program.functions[j])) {
        canonical[i] = static_cast<std::uint32_t>(j);
        break;
      }
    }
  }

  // Compact: keep representatives, build final remap.
  std::vector<std::uint32_t> remap(n);
  std::vector<Function> kept;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (canonical[i] == i) {
      remap[i] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(std::move(program.functions[i]));
    } else {
      ++removed;
    }
  }
  if (removed == 0) {
    program.functions = std::move(kept);
    return 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (canonical[i] != i) remap[i] = remap[canonical[i]];
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
  for (auto& [wid, fn_index] : program.lambda_entries) {
    (void)wid;
    fn_index = remap[fn_index];
  }
  return removed;
}

}  // namespace lnic::compiler
