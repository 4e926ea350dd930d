#include "compiler/analysis.h"

#include <deque>

#include "microc/liveness.h"

namespace lnic::compiler {

using microc::Opcode;

std::vector<bool> reachable_blocks(const microc::Function& fn) {
  std::vector<bool> seen(fn.blocks.size(), false);
  std::deque<std::uint32_t> work{0};
  seen[0] = true;
  while (!work.empty()) {
    const auto b = work.front();
    work.pop_front();
    microc::for_each_successor(fn.blocks, b, [&](std::uint32_t succ) {
      if (!seen[succ]) {
        seen[succ] = true;
        work.push_back(succ);
      }
    });
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
