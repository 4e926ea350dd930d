// The workload-manager compiler pipeline (§4.1 end, §5.1):
//
//   assemble (naïve lowering of the P4 match stage over the lambdas)
//     -> lambda coalescing (DCE + duplicate-helper merging)
//     -> match reduction (table merge + if-else conversion)
//     -> memory stratification (object placement)
//     -> static isolation check (D2; always runs)
//
// Each of the three optimization stages is individually switchable
// (ablation benches, Fig. 9) and the pipeline records code size after
// every stage, which is exactly the series Figure 9 plots.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "microc/ir.h"
#include "p4/p4.h"

namespace lnic::compiler {

struct Options {
  bool run_coalescing = true;
  bool run_match_reduction = true;
  bool run_stratification = true;
  /// Per-core instruction store limit (16 K instructions, §6.1.2).
  std::uint64_t instruction_store_words = 16384;

  static Options none() {
    Options options;
    options.run_coalescing = false;
    options.run_match_reduction = false;
    options.run_stratification = false;
    return options;
  }

  friend bool operator==(const Options&, const Options&) = default;
};

struct StageReport {
  std::string stage;          // "unoptimized", "coalescing", ...
  std::uint64_t code_words;   // program size after this stage
};

struct CompileOutput {
  microc::Program program;
  std::vector<StageReport> stages;

  std::uint64_t naive_words() const { return stages.front().code_words; }
  std::uint64_t final_words() const { return stages.back().code_words; }
};

/// Compiles lambdas + a P4 match spec into a deployable program.
/// `lambdas` must contain every action function the spec references;
/// verification runs before and after the pipeline. Fails if the static
/// isolation check finds a provable out-of-bounds access or the final
/// binary exceeds the instruction store.
Result<CompileOutput> compile(const p4::MatchSpec& spec,
                              microc::Program lambdas,
                              const Options& options = {});

}  // namespace lnic::compiler
