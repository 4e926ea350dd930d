// Placement layer (§5, Fig. 2): the workload manager's decision of
// *where* each lambda runs. The paper's manager "verifies if the lambdas
// can fit and execute on the NICs" — firmware must fit the per-core
// 16 K-instruction store and the NIC memory hierarchy — and falls back
// to host backends when it cannot. This module makes that decision over
// per-backend capacity reports (backends::Capacity) and compiled
// per-lambda footprints, producing a PlacementPlan the manager deploys
// and the gateway routes by.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "common/result.h"
#include "common/types.h"
#include "workloads/lambdas.h"

namespace lnic::framework {

/// Capacity snapshot of one pool member, as placement sees it.
struct BackendSlot {
  std::size_t index = 0;  // position in the deployment pool
  backends::Capacity capacity;
};

/// Footprint of one lambda: its single-action sub-bundle compiled alone
/// through the NIC pipeline with no store limit. Sums of these slightly
/// over-estimate co-resident firmware (each carries its own dispatch
/// stage and helpers that coalescing would merge), so packing by summed
/// footprints is conservative: a plan that fits by footprint always
/// compiles within the store.
struct FunctionFootprint {
  std::string name;
  WorkloadId workload = kInvalidWorkload;
  std::uint64_t code_words = 0;  // optimized instruction-store words
  Bytes memory_bytes = 0;        // persistent (global) object bytes
};

/// One replica of a function in the plan.
struct PlacementAssignment {
  std::size_t backend_index = 0;  // into the deployment pool

  friend bool operator==(const PlacementAssignment&,
                         const PlacementAssignment&) = default;
};

/// Output of placement: every function mapped to a replica set.
struct PlacementPlan {
  std::map<std::string, std::vector<PlacementAssignment>> functions;

  /// Function names (bundle order not guaranteed; map order) assigned to
  /// each pool member; entries may be empty.
  std::vector<std::vector<std::string>> functions_per_backend(
      std::size_t pool_size) const;

  bool assigns(const std::string& function, std::size_t backend_index) const;
};

/// The manager's one placement rule (paper semantics): a lambda runs on
/// every NIC worker when the NIC-resident set still fits the instruction
/// store and EMEM; otherwise it spills to every host worker. A
/// homogeneous pool therefore reproduces the replicate-everywhere
/// behaviour exactly. Fails when some function fits nowhere (e.g. an
/// oversize lambda in an all-NIC pool).
Result<PlacementPlan> place_nic_first(
    const std::vector<BackendSlot>& pool,
    const std::vector<FunctionFootprint>& functions);

/// Capacity snapshots for a deployment pool, in pool order.
std::vector<BackendSlot> snapshot_pool(
    std::span<backends::Backend* const> pool);

/// Compiles each action of `bundle` alone (full NIC pipeline, unlimited
/// instruction store) to measure per-lambda footprints, in spec order.
Result<std::vector<FunctionFootprint>> compute_footprints(
    const workloads::WorkloadBundle& bundle);

}  // namespace lnic::framework
