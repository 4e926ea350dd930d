// Shared IR analyses: block reachability and per-object access counting,
// used by DCE and stratification. Register liveness, which DCE also uses,
// lives in microc/liveness.h beside the decoder that shares it.
#pragma once

#include <vector>

#include "microc/ir.h"

namespace lnic::compiler {

/// Blocks reachable from the entry block.
std::vector<bool> reachable_blocks(const microc::Function& fn);

/// Fills MemObject::access_estimate with the static count of memory
/// instructions referencing each object across the whole program.
void estimate_object_accesses(microc::Program& program);

}  // namespace lnic::compiler
