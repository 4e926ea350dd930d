// The benchmark's three workloads. Each one configures a core::Cluster,
// installs its routes and warm state, turns loadgen arrivals into real
// request bodies, and checks every response against an answer it knows
// independently of the simulator (the page table, the reference
// grayscale conversion, the values it loaded).
//
// A Workload object lives for one round. Every draw comes from streams
// seeded by the round's seed, so two rounds with one seed offer the same
// requests in the same order.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/result.h"
#include "core/cluster.h"
#include "loadgen/generator.h"
#include "workloads/lambdas.h"

namespace lnic::perfbench {

/// One request as the sink hands it to the gateway.
struct Call {
  std::uint32_t fn = 0;  // index into Workload::aliases()
  BufferView payload;
  std::uint64_t key = 0;  // workload-specific check data
  std::uint64_t value = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual core::ClusterConfig cluster_config() const = 0;
  virtual workloads::WorkloadBundle bundle() const = 0;
  /// Open-loop schedule of one measured round (arrivals, skew, size).
  virtual loadgen::LoadGenConfig load() const = 0;

  /// Registers the gateway aliases and warms state on a ready cluster.
  /// Requests it sends through the gateway go to `warm_calls` so a
  /// replay can rebuild the lambdas' global state.
  virtual Status install(core::Cluster& cluster,
                         std::vector<Call>& warm_calls) = 0;

  /// Gateway names the load generator picks from, hottest first, and the
  /// workload id each one routes to.
  const std::vector<std::string>& aliases() const { return aliases_; }
  WorkloadId alias_workload(std::uint32_t fn) const { return workload_[fn]; }
  std::vector<loadgen::FunctionProfile> profiles() const;
  /// Request sizes the load generator draws (Request::payload_bytes);
  /// make_call pads each body to its drawn size.
  virtual loadgen::PayloadDist payload() const {
    return loadgen::PayloadDist::fixed_size(0);
  }

  /// Builds the body for one offered request (draws from the workload's
  /// own seeded streams, in offer order).
  virtual Call make_call(const loadgen::Request& request) = 0;
  /// True when `response` is the right answer to `call`.
  virtual bool check(const Call& call, const BufferView& response) const = 0;

 protected:
  void add_alias(std::string name, WorkloadId workload) {
    aliases_.push_back(std::move(name));
    workload_.push_back(workload);
  }

 private:
  std::vector<std::string> aliases_;
  std::vector<WorkloadId> workload_;
};

/// Names accepted by make_workload, in the order `--workload all` runs.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `requests` overrides the round size
/// (0 keeps the workload's default).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t requests = 0);

/// Sends `calls` through the gateway all at once and runs the cluster
/// until every one has answered and passed `workload.check`.
Status send_and_wait(core::Cluster& cluster, const Workload& workload,
                     const std::vector<Call>& calls);

}  // namespace lnic::perfbench
