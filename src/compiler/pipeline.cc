#include "compiler/pipeline.h"

#include "compiler/coalesce.h"
#include "compiler/dce.h"
#include "compiler/isolation.h"
#include "compiler/match_reduce.h"
#include "compiler/stratify.h"
#include "microc/verify.h"
#include "p4/lower.h"

namespace lnic::compiler {

Result<CompileOutput> compile(const p4::MatchSpec& spec,
                              microc::Program lambdas,
                              const Options& options) {
  CompileOutput out;
  out.program = std::move(lambdas);

  // Assemble: naïve lowering produces the unoptimized deployable program.
  if (Status st = p4::lower_match_stage(spec, out.program,
                                        p4::LoweringMode::kNaive);
      !st.ok()) {
    return st.error();
  }
  if (Status st = microc::verify(out.program); !st.ok()) return st.error();
  out.stages.push_back({"unoptimized", microc::code_size(out.program)});

  if (options.run_coalescing) {
    eliminate_dead_code(out.program);
    coalesce_lambdas(out.program);
    out.stages.push_back({"lambda-coalescing", microc::code_size(out.program)});
  }

  if (options.run_match_reduction) {
    if (Status st = reduce_match_stage(spec, out.program); !st.ok()) {
      return st.error();
    }
    out.stages.push_back({"match-reduction", microc::code_size(out.program)});
  }

  if (options.run_stratification) {
    stratify_memory(out.program);
    out.stages.push_back({"memory-stratification",
                          microc::code_size(out.program)});
  }

  if (Status st = microc::verify(out.program); !st.ok()) return st.error();

  if (auto report = check_isolation(out.program); !report.ok()) {
    return report.error();
  }

  if (out.final_words() > options.instruction_store_words) {
    return make_error("compile: program (" +
                      std::to_string(out.final_words()) +
                      " words) exceeds the per-core instruction store (" +
                      std::to_string(options.instruction_store_words) + ")");
  }
  return out;
}

}  // namespace lnic::compiler
