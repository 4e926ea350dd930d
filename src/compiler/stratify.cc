#include "compiler/stratify.h"

#include <algorithm>
#include <numeric>

#include "compiler/analysis.h"

namespace lnic::compiler {

using microc::MemObject;
using microc::MemRegion;
using microc::PlacementHint;

std::size_t stratify_memory(microc::Program& program) {
  estimate_object_accesses(program);

  // Order objects by placement priority: hot pragmas first, then by
  // static access count per byte (hottest data closest to the core).
  std::vector<std::size_t> order(program.objects.size());
  std::iota(order.begin(), order.end(), 0);
  auto density = [&](std::size_t i) {
    const MemObject& o = program.objects[i];
    return static_cast<double>(o.access_estimate) /
           static_cast<double>(std::max<Bytes>(o.size, 1));
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& oa = program.objects[a];
    const auto& ob = program.objects[b];
    const bool hot_a = oa.hint == PlacementHint::kHot;
    const bool hot_b = ob.hint == PlacementHint::kHot;
    if (hot_a != hot_b) return hot_a;
    return density(a) > density(b);
  });

  Bytes local_left = microc::kLocalCapacity;
  Bytes ctm_left = microc::kCtmCapacity;
  Bytes imem_left = microc::kImemCapacity;
  std::size_t moved = 0;

  for (std::size_t i : order) {
    MemObject& obj = program.objects[i];
    if (obj.hint == PlacementHint::kCold) {
      obj.region = MemRegion::kEmem;
      continue;
    }
    if (obj.size <= local_left && obj.access_estimate > 0) {
      obj.region = MemRegion::kLocal;
      local_left -= obj.size;
      ++moved;
    } else if (obj.size <= ctm_left && obj.access_estimate > 0) {
      obj.region = MemRegion::kCtm;
      ctm_left -= obj.size;
      ++moved;
    } else if (obj.size <= imem_left && obj.access_estimate > 0) {
      obj.region = MemRegion::kImem;
      imem_left -= obj.size;
      ++moved;
    } else {
      obj.region = MemRegion::kEmem;
    }
  }
  return moved;
}

}  // namespace lnic::compiler
