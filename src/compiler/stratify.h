// Memory stratification (§5.1): "based on the access patterns, the
// workload manager can choose the most efficient memory for an object at
// compile time ... object size or hints from the user (as pragmas) to
// decide whether to put the object in a local memory, CTM, IMEM or EMEM."
//
// Placement is greedy by heat density (estimated accesses per byte),
// hot-pragma objects first, under per-region capacity budgets of the
// target NIC. Cold-pragma objects go straight to EMEM. The placement
// changes both the lowered code size (far memories need longer access
// sequences) and the interpreter's per-access cycle charges.
#pragma once

#include "microc/ir.h"

namespace lnic::compiler {

/// Assigns MemObject::region for every object, under the card's region
/// budgets (microc::kLocalCapacity, kCtmCapacity, kImemCapacity).
/// Returns the number of objects moved out of EMEM (the naïve layout
/// places everything there).
std::size_t stratify_memory(microc::Program& program);

}  // namespace lnic::compiler
