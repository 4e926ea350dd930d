// ASIC-based SmartNIC model (Netronome Agilio CX-like, §5, Fig. 4).
//
// The card is a grid of islands × cores × threads. Every core runs the
// same Match+Lambda firmware (§5: "we execute all three stages — parse,
// match, and lambdas — together inside a core"); requests are dispatched
// by a work-conserving scheduler to an idle thread (uniform at random in
// the shipped hardware; an optional WFQ mode models §4.2.1 D1's
// weighted-fair-queuing across workloads). A thread runs its lambda to
// completion — there is no preemption and no context switch, which is
// the architectural property behind the paper's tail-latency results.
//
// Service time per request = interpreted cycle count of the deployed
// firmware at the NPU cost model / core frequency. Multi-packet payloads
// arrive as RDMA writes straight into EMEM (D3); once the last fragment
// lands, the event triggers the lambda with the assembled body. External
// KV calls suspend the machine while the thread stays occupied
// (run-to-completion), resuming when the reply packet returns; a call
// that times out after its resends (proto::KvCalls) ends the request as
// a trap, which frees the thread.
//
// Firmware (re)deployment models the §7 limitation: no hot swapping —
// the NIC drops requests during the load window. `allow_hot_swap`
// enables the paper's anticipated hitless-update behaviour for ablation.
//
// While the simulation has a span recorder attached, packets whose
// lambda header carries a trace id get nic.reassemble / nic.parse /
// nic.queue / nic.execute / nic.kv_wait spans. Recording is pure
// bookkeeping: timing, dispatch order and RNG draws are unchanged.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/pool.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "compiler/pipeline.h"
#include "microc/interp.h"
#include "net/network.h"
#include "net/packet.h"
#include "nicsim/profiler.h"
#include "proto/kv_call.h"
#include "sim/simulator.h"

namespace lnic::nicsim {

enum class DispatchPolicy : std::uint8_t {
  kUniformRandom,  // the shipped Netronome scheduler (§5)
  kWfq,            // weighted fair queuing across workloads (D1)
};

/// Firmware load window during which the NIC is down (§7).
constexpr SimDuration kFirmwareLoadTime = seconds(15);

struct NicConfig {
  std::uint32_t islands = 7;
  std::uint32_t cores_per_island = 8;   // 56 cores total (§6.1.2)
  std::uint32_t threads_per_core = 8;   // 448 hardware threads
  std::uint64_t instr_store_words = 16384;  // 16 K instructions per core
  /// Basic-NIC-operation reserve: cores kept for TCP/IP offload and
  /// checksums (§3.1c). These threads never run lambdas.
  std::uint32_t reserved_cores = 2;
  DispatchPolicy dispatch = DispatchPolicy::kUniformRandom;
  bool allow_hot_swap = false;  // §7 future-work ablation
  /// §5 footnote 4: "the other approach is to pipeline these stages and
  /// run them on separate cores". When enabled, `parse_match_cores` are
  /// carved out to run the parse+match stage; lambdas run only their own
  /// body cycles on the remaining threads.
  bool pipeline_stages = false;
  std::uint32_t parse_match_cores = 2;
  std::size_t max_queue_depth = 8192;

  std::uint32_t total_cores() const { return islands * cores_per_island; }
  std::uint32_t lambda_threads() const {
    const std::uint32_t taken =
        reserved_cores + (pipeline_stages ? parse_match_cores : 0);
    return (total_cores() - taken) * threads_per_core;
  }
  std::uint32_t parse_threads() const {
    return parse_match_cores * threads_per_core;
  }
};

/// DRR weight table for the kWfq dispatch policy, keyed by scheduling
/// class: a workload's tenant when one is assigned (set_tenant /
/// LambdaHeader::tenant_id), otherwise the workload id itself — so
/// legacy per-workload weight tables keep their exact meaning. Classes
/// absent from the table default to weight 1.
using TenantWeights = std::map<std::uint32_t, std::uint32_t>;

/// Per-tenant resource quota enforced at deploy/hot-swap time (SuperNIC:
/// safe sharing of a SmartNIC's compute and memory across tenants). A
/// zero field means unlimited; the whole-card limits still apply.
struct TenantQuota {
  std::uint64_t instr_store_words = 0;  // per-core instruction-store slots
  Bytes ctm_bytes = 0;                  // per-island Cluster Target Memory
  Bytes imem_bytes = 0;                 // shared on-chip IMEM
  Bytes emem_bytes = 0;                 // external DRAM
};

/// What one tenant's lambdas actually occupy on the deployed firmware:
/// lowered instruction words and per-region object bytes of every
/// function reachable from the tenant's lambda entries. Shared helpers
/// are charged to every tenant that reaches them (conservative).
struct TenantUsage {
  std::uint64_t instr_words = 0;
  Bytes region_bytes[4] = {0, 0, 0, 0};  // indexed by microc::MemRegion
};

/// kv_retransmits and kv_timeouts come from proto::KvCallStats.
struct NicStats : proto::KvCallStats {
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_dropped_down = 0;    // arrived during firmware load
  std::uint64_t requests_dropped_queue = 0;   // queue overflow
  std::uint64_t requests_dropped_undeploy = 0;  // queued at tenant undeploy
  std::uint64_t requests_to_host = 0;         // no matching lambda
  std::uint64_t traps = 0;                    // timed-out KV calls included
  Bytes peak_inflight_bytes = 0;              // RDMA staging high-water mark
  Sampler service_cycles;                     // per-request NPU cycles
  Sampler queue_wait_ns;                      // dispatch queue delay
  /// Completions per scheduling class (tenant id, or workload id for
  /// tenant-less traffic). Only populated under the kWfq policy.
  std::map<std::uint32_t, std::uint64_t> completed_by_class;
};

class SmartNic {
 public:
  SmartNic(sim::Simulator& sim, net::Network& network, NicConfig config = {});
  ~SmartNic();  // out of line: Flight is incomplete here

  /// This NIC's address on the fabric.
  NodeId node() const { return node_; }

  /// Loads compiled firmware. Every NIC of a pool that runs the same
  /// slice is handed the same image: the program is shared, and so is
  /// its decoded form, but each NIC's global objects are its own and
  /// start from the program's initial data. Fails if the binary exceeds
  /// this NIC's per-core instruction store or any tenant quota assigned
  /// here; a rejected deploy (including a rejected hot swap) leaves the
  /// previously running firmware untouched and serving. Unless hot swap
  /// is enabled the NIC is down for kFirmwareLoadTime. With hot swap, a
  /// request parked on a KV call finishes on the firmware image and
  /// global state it started with.
  Status deploy(std::shared_ptr<const compiler::CompileOutput> firmware);

  bool deployed() const { return image_ != nullptr; }
  bool down() const;

  /// Node to which kExtCall KV traffic is sent (the memcached server).
  void set_kv_server(NodeId node) { kv_.set_server(node); }
  /// Installs the DRR weight table (see TenantWeights for the key space).
  void set_drr_weights(TenantWeights weights) { weights_ = std::move(weights); }

  /// Assigns a workload to a tenant namespace. Takes effect for quota
  /// accounting at the next deploy and for scheduling immediately;
  /// requests whose lambda header carries an explicit tenant_id override
  /// this mapping.
  void set_tenant(WorkloadId workload, TenantId tenant);
  /// The tenant a workload is assigned to (kDefaultTenant if none).
  TenantId tenant_of(WorkloadId workload) const;
  /// Installs (or, with a default-constructed quota, clears) a tenant's
  /// resource quota. Enforced on every subsequent deploy.
  void set_tenant_quota(TenantId tenant, TenantQuota quota);

  /// Removes a tenant from the card: drops its queued requests (counted
  /// in requests_dropped_undeploy), erases its DRR queue/deficit/weight
  /// entries so the scheduler scan set doesn't grow without bound, and
  /// forgets its workload assignments, quota and usage. In-flight
  /// requests already on a thread run to completion.
  void undeploy_tenant(TenantId tenant);

  /// Deployed footprint of an assigned tenant (nullptr if the current
  /// firmware carries no lambda of that tenant).
  const TenantUsage* tenant_usage(TenantId tenant) const;
  /// All per-tenant footprints of the currently deployed firmware.
  const std::map<TenantId, TenantUsage>& tenant_usages() const {
    return tenant_usage_;
  }
  /// All installed per-tenant quotas.
  const std::map<TenantId, TenantQuota>& tenant_quotas() const {
    return tenant_quotas_;
  }
  /// Number of scheduling classes the DRR scanner currently tracks.
  std::size_t drr_class_count() const { return wfq_queues_.size(); }

  const NicConfig& config() const { return config_; }
  const NicStats& stats() const { return stats_; }
  /// NIC memory in use: firmware + global objects + staged RDMA bodies.
  Bytes memory_in_use() const;
  Bytes firmware_bytes() const { return firmware_bytes_; }
  std::uint32_t busy_threads() const { return busy_threads_; }
  std::size_t queue_depth() const { return queued_; }
  /// Instruction-store words consumed by the deployed firmware (per
  /// core; every core runs the same image).
  std::uint64_t instr_words_used() const { return instr_words_used_; }
  /// Lambda state resident in one region of the memory hierarchy
  /// (Fig. 4): declared objects placed there by stratification, plus —
  /// for EMEM — staged RDMA bodies in flight.
  Bytes region_bytes_used(microc::MemRegion region) const;

  /// Turns on the NPU-grid profiler (per-thread busy timelines, queue
  /// depth samples, per-lambda attribution). Off by default; enabling it
  /// assigns deterministic lowest-free thread slots for attribution but
  /// never alters simulated timing.
  void enable_profiler(std::size_t max_samples = 4096);
  const NpuProfiler* profiler() const { return profiler_.get(); }

 private:
  struct FlightFields;
  struct Flight;  // one in-flight request occupying a thread

  void handle_packet(const net::Packet& packet);
  void handle_request(const net::Packet& packet, net::BufferView body);
  void handle_rdma_fragment(const net::Packet& packet);
  /// A KV call's end: resume the lambda, or trap it on a timeout.
  void on_kv_reply(Flight* flight, std::optional<std::uint64_t> reply);
  /// Returns a finished or dropped flight to the pool.
  void park(Flight* flight);
  void enter_parse_stage(Flight* flight);
  void release_parse_thread();
  void enqueue(Flight* flight);
  /// DRR scheduling class of a request: explicit header tenant, else the
  /// workload's assigned tenant, else the workload id itself.
  std::uint32_t sched_class_of(const net::LambdaHeader& header) const;
  /// Per-tenant footprint of a program (lowered words + region bytes of
  /// every function reachable from each tenant's lambda entries).
  std::map<TenantId, TenantUsage> compute_tenant_usage(
      const microc::Program& program) const;
  void try_dispatch();
  Flight* pop_next();  // honours the dispatch policy
  void start_execution(Flight* flight);
  void continue_flight(Flight* flight, microc::Outcome outcome);
  void finish_flight(Flight* flight);
  void release_thread();

  sim::Simulator& sim_;
  net::Network& network_;
  NicConfig config_;
  NodeId node_;
  Rng rng_;

  std::shared_ptr<microc::Deployment> image_;  // null until deployed
  Bytes firmware_bytes_ = 0;
  std::uint64_t instr_words_used_ = 0;
  SimTime down_until_ = 0;

  std::uint32_t busy_threads_ = 0;
  // Pipelined mode: dedicated parse+match stage ahead of the lambda pool.
  std::uint32_t busy_parse_threads_ = 0;
  std::deque<Flight*> parse_queue_;
  std::uint64_t parse_match_cycles_ = 0;  // static estimate, set at deploy
  // Dispatch queues: single FIFO for uniform mode; per-scheduling-class
  // (tenant, or workload when tenant-less) for the DRR policy.
  std::deque<Flight*> fifo_;
  std::map<std::uint32_t, std::deque<Flight*>> wfq_queues_;
  std::map<std::uint32_t, std::int64_t> wfq_deficit_;
  TenantWeights weights_;
  std::size_t queued_ = 0;

  // Tenancy: workload -> tenant assignments, per-tenant quotas, and the
  // per-tenant footprint of the currently deployed firmware.
  std::map<WorkloadId, TenantId> workload_tenants_;
  std::map<TenantId, TenantQuota> tenant_quotas_;
  std::map<TenantId, TenantUsage> tenant_usage_;

  // RDMA reassembly: fragments land "in EMEM" by reference and coalesce
  // into a spanning view without copying. A traced message's open
  // nic.reassemble span waits here for its last fragment.
  net::Reassembler reassembly_;
  std::map<std::pair<NodeId, RequestId>, trace::SpanId> reassemble_spans_;
  Bytes inflight_bytes_ = 0;

  // Every flight record: queued, staged, running, or parked for reuse.
  Pool<Flight> flights_;
  // Suspended flights waiting for a KV reply, by ext-call token.
  proto::KvCalls<Flight*> kv_;

  std::unique_ptr<NpuProfiler> profiler_;
  // Thread-slot occupancy for profiler attribution (lowest free slot;
  // only maintained while the profiler is enabled).
  std::vector<bool> slot_busy_;

  NicStats stats_;
};

}  // namespace lnic::nicsim
