#include "framework/placement.h"

#include <algorithm>

#include "compiler/pipeline.h"
#include "workloads/split.h"

namespace lnic::framework {

std::vector<std::vector<std::string>> PlacementPlan::functions_per_backend(
    std::size_t pool_size) const {
  std::vector<std::vector<std::string>> out(pool_size);
  for (const auto& [fn, assignments] : functions) {
    for (const auto& assignment : assignments) {
      if (assignment.backend_index < pool_size) {
        out[assignment.backend_index].push_back(fn);
      }
    }
  }
  return out;
}

bool PlacementPlan::assigns(const std::string& function,
                            std::size_t backend_index) const {
  const auto it = functions.find(function);
  if (it == functions.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [backend_index](const PlacementAssignment& a) {
                       return a.backend_index == backend_index;
                     });
}

namespace {

std::vector<std::size_t> nic_indices(const std::vector<BackendSlot>& pool) {
  std::vector<std::size_t> out;
  for (const auto& slot : pool) {
    if (slot.capacity.on_nic) out.push_back(slot.index);
  }
  return out;
}

std::vector<std::size_t> host_indices(const std::vector<BackendSlot>& pool) {
  std::vector<std::size_t> out;
  for (const auto& slot : pool) {
    if (!slot.capacity.on_nic) out.push_back(slot.index);
  }
  return out;
}

Error nowhere_to_place(const FunctionFootprint& fn) {
  return make_error("placement: no backend can hold '" + fn.name + "' (" +
                    std::to_string(fn.code_words) + " words)");
}

}  // namespace

Result<PlacementPlan> place_nic_first(
    const std::vector<BackendSlot>& pool,
    const std::vector<FunctionFootprint>& functions) {
  const auto nics = nic_indices(pool);
  const auto hosts = host_indices(pool);

  // The NIC-resident set is replicated to every NIC worker, so the
  // binding constraint is the *smallest* NIC's budget.
  std::uint64_t store_budget = backends::Capacity::kUnlimitedWords;
  Bytes mem_budget = static_cast<Bytes>(-1);
  for (std::size_t idx : nics) {
    store_budget = std::min(store_budget, pool[idx].capacity.instr_store_words);
    mem_budget = std::min(mem_budget, pool[idx].capacity.memory_bytes);
  }

  PlacementPlan plan;
  std::uint64_t store_used = 0;
  Bytes mem_used = 0;
  for (const auto& fn : functions) {
    const bool fits_nic = !nics.empty() &&
                          store_used + fn.code_words <= store_budget &&
                          mem_used + fn.memory_bytes <= mem_budget;
    if (fits_nic) {
      store_used += fn.code_words;
      mem_used += fn.memory_bytes;
      for (std::size_t idx : nics) {
        plan.functions[fn.name].push_back(PlacementAssignment{idx});
      }
      continue;
    }
    if (hosts.empty()) return nowhere_to_place(fn);
    for (std::size_t idx : hosts) {
      plan.functions[fn.name].push_back(PlacementAssignment{idx});
    }
  }
  return plan;
}

std::vector<BackendSlot> snapshot_pool(
    std::span<backends::Backend* const> pool) {
  std::vector<BackendSlot> slots;
  slots.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    slots.push_back(BackendSlot{i, pool[i]->capacity()});
  }
  return slots;
}

Result<std::vector<FunctionFootprint>> compute_footprints(
    const workloads::WorkloadBundle& bundle) {
  std::vector<FunctionFootprint> footprints;
  for (const auto& action : workloads::bundle_actions(bundle)) {
    auto sub = workloads::split_bundle(bundle, {action});
    FunctionFootprint fp;
    fp.name = action;
    for (const auto& table : sub.spec.tables) {
      if (table.is_route_table) continue;
      for (const auto& entry : table.entries) {
        if (entry.action_function == action && !entry.key_values.empty()) {
          fp.workload = static_cast<WorkloadId>(entry.key_values.front());
        }
      }
    }
    compiler::Options options;
    options.instruction_store_words = backends::Capacity::kUnlimitedWords;
    auto compiled =
        compiler::compile(sub.spec, std::move(sub.lambdas), options);
    if (!compiled.ok()) {
      return make_error("placement: footprint compile of '" + action +
                        "' failed: " + compiled.error().message);
    }
    fp.code_words = compiled.value().final_words();
    for (const auto& object : compiled.value().program.objects) {
      if (object.scope == microc::MemScope::kGlobal) {
        fp.memory_bytes += object.size;
      }
    }
    footprints.push_back(std::move(fp));
  }
  return footprints;
}

}  // namespace lnic::framework
