// Random Micro-C source programs shared by the fuzz suite and the
// interpreter's golden table: loops, branches and memory, always
// well-formed and always terminating (loop counters are bounded).
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"

namespace lnic::microc::test_programs {

// Emits a random arithmetic expression over the in-scope variables.
inline std::string random_expr(Rng& rng, const std::vector<std::string>& vars,
                               int depth) {
  if (depth <= 0 || rng.next_below(3) == 0) {
    if (!vars.empty() && rng.next_bool(0.6)) {
      return vars[rng.next_below(vars.size())];
    }
    return std::to_string(rng.next_below(100) + 1);
  }
  static const char* ops[] = {"+", "-", "*", "&", "|", "^"};
  return "(" + random_expr(rng, vars, depth - 1) + " " +
         ops[rng.next_below(6)] + " " + random_expr(rng, vars, depth - 1) +
         ")";
}

// Generates a well-formed random function `f` with nested control flow
// and bounded loops.
inline std::string random_program(Rng& rng) {
  std::ostringstream out;
  out << "global u8 mem[256];\n";
  out << "int f() {\n";
  std::vector<std::string> vars;
  const int nvars = 2 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nvars; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    out << "  var " << name << " = " << random_expr(rng, vars, 2) << ";\n";
    vars.push_back(name);
  }
  const int stmts = 3 + static_cast<int>(rng.next_below(6));
  for (int s = 0; s < stmts; ++s) {
    switch (rng.next_below(5)) {
      case 0:
        out << "  " << vars[rng.next_below(vars.size())] << " = "
            << random_expr(rng, vars, 2) << ";\n";
        break;
      case 1:
        out << "  if (" << random_expr(rng, vars, 1) << " % 2 == 0) { "
            << vars[rng.next_below(vars.size())] << " += "
            << random_expr(rng, vars, 1) << "; } else { "
            << vars[rng.next_below(vars.size())] << " ^= 7; }\n";
        break;
      case 2: {
        std::string loop_var = "i";
        loop_var += std::to_string(s);
        out << "  for (var " << loop_var << " = 0; " << loop_var << " < "
            << (1 + rng.next_below(8)) << "; " << loop_var << " += 1) { "
            << vars[rng.next_below(vars.size())] << " += " << loop_var
            << "; }\n";
        break;
      }
      case 3:
        out << "  store8(mem, (" << random_expr(rng, vars, 1)
            << ") % 31 * 8, " << vars[rng.next_below(vars.size())] << ");\n";
        break;
      default:
        out << "  " << vars[rng.next_below(vars.size())]
            << " = load8(mem, (" << random_expr(rng, vars, 1)
            << ") % 31 * 8);\n";
        break;
    }
  }
  out << "  var acc = 0;\n";
  for (const auto& v : vars) out << "  acc ^= " << v << ";\n";
  out << "  resp_word(acc);\n  return acc;\n}\n";
  return out.str();
}

/// The source that RandomSourceTest seed `seed` compiles.
inline std::string random_program_for_seed(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  return random_program(rng);
}

}  // namespace lnic::microc::test_programs
