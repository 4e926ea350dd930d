// Server-CPU worker model for the baseline backends (§6.1.1).
//
// A HostServer is a worker node whose lambdas run behind the OpenFaaS
// Python service (bare metal) or the same service inside Docker with
// overlay networking (containers). A request passes three stages, each
// a queued resource:
//
//   kernel stage  (capacity = cores)      per-packet rx/tx work — the OS
//                                         network stack plus, for
//                                         containers, veth/OVS/conntrack;
//   runtime stage (capacity = cores, or 1 per-request dispatch — watchdog
//                  when serialize_runtime)  fork/IPC, gateway NAT;
//   GIL stage     (capacity = 1)          the lambda's interpreted
//                                         execution — CPython's global
//                                         interpreter lock serializes it
//                                         no matter how many cores exist.
//
// A context switch is charged whenever the GIL slot picks up a different
// workload than it last ran (the §6.3.2 contention effect). Service
// times carry multiplicative jitter plus rare scheduler/GC hiccups — the
// paper's "miscellaneous software overheads" that produce the host
// backends' long tails. A lambda blocked on an external KV call holds
// its service thread but releases all stage resources, paying fresh
// kernel+GIL costs on resume — exactly the CPU behaviour the paper
// blames for host tail latency, and absent from the run-to-completion
// NIC. A KV call that times out after its resends (proto::KvCalls) ends
// the request as a trap, which frees its service thread.
//
// While the simulation has a span recorder attached, requests whose
// lambda header carries a trace id get host.queue / host.kernel /
// host.runtime / host.execute / host.kv_wait spans. Recording never
// affects simulated timing.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "microc/interp.h"
#include "net/network.h"
#include "proto/kv_call.h"
#include "sim/simulator.h"

namespace lnic::hostsim {

struct HostConfig {
  /// Physical parallelism for kernel/runtime work (56 hardware threads
  /// on the testbed's dual Xeon Gold 5117, §6.1.2). Fig. 8's "single
  /// core" variant sets 1.
  std::uint32_t cores = 56;
  /// Service concurrency: how many lambda invocations the runtime admits
  /// at once (the "1 thread" / "56 threads" axis of Fig. 7).
  std::uint32_t worker_threads = 56;
  /// Serialize the per-request runtime dispatch (OpenFaaS classic
  /// watchdog forks one request at a time inside the container).
  bool serialize_runtime = false;
  /// Kernel network stack + virtualization cost per packet.
  SimDuration rx_per_packet = microseconds(15);
  SimDuration tx_per_packet = microseconds(10);
  /// Runtime dispatch per request (watchdog fork/IPC, NAT/conntrack).
  SimDuration per_request = microseconds(110);
  /// Bound of the rare scheduler/GC hiccups appended to execution.
  SimDuration hiccup_max = microseconds(500);
};

/// kv_retransmits and kv_timeouts come from proto::KvCallStats.
struct HostStats : proto::KvCallStats {
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_dropped = 0;  // traps (timed-out KV calls too)
  std::uint64_t context_switches = 0;
  std::uint32_t peak_active_jobs = 0;  // service-thread high-water mark
  Sampler queue_wait_ns;
  SimDuration busy_time = 0;  // CPU-occupancy for utilization (Table 3)
};

class HostServer {
 public:
  HostServer(sim::Simulator& sim, net::Network& network, HostConfig config);
  ~HostServer();  // out of line: Job is incomplete here

  NodeId node() const { return node_; }

  /// Installs the program whose lambda_entries this worker serves. The
  /// host runs the same logic as the NIC but under the host cost model;
  /// dispatch happens in the runtime, not a P4 match stage. Hosts handed
  /// one program share it and its decoded form; each keeps its own
  /// global objects.
  void deploy(std::shared_ptr<const microc::Program> program);

  void set_kv_server(NodeId node) { kv_.set_server(node); }

  const HostStats& stats() const { return stats_; }
  /// Requests holding a service thread (admitted, not yet finished).
  std::uint32_t active_jobs() const { return active_jobs_; }
  /// Cores currently busy in any stage (kernel / runtime / GIL).
  std::uint32_t busy_cores() const { return busy_units_; }
  const HostConfig& config() const { return config_; }

 private:
  struct Job;
  /// A queued single-stage resource (capacity units, FIFO).
  struct Stage {
    std::uint32_t capacity = 1;
    std::uint32_t busy = 0;
    std::deque<std::pair<std::unique_ptr<Job>, SimDuration>> queue;
  };

  void handle_packet(const net::Packet& packet);
  void handle_request(const net::Packet& packet, net::BufferView body);
  /// A KV call's end: back to the interpreter, or a trap on a timeout.
  void on_kv_reply(std::unique_ptr<Job> job,
                   std::optional<std::uint64_t> reply);
  void admit(std::unique_ptr<Job> job);
  void try_admit();
  const char* stage_span_name(const Stage& stage) const;

  // Stage plumbing: occupy `stage` for `service`, then continue.
  enum class Next : std::uint8_t { kRuntime, kGil, kDone };
  void enter_stage(Stage& stage, std::unique_ptr<Job> job,
                   SimDuration service, Next next);
  void stage_done(Stage& stage, std::unique_ptr<Job> job, Next next);
  void run_gil(std::unique_ptr<Job> job);   // executes the lambda
  void finish_job(std::unique_ptr<Job> job);

  SimDuration jittered(SimDuration base);

  sim::Simulator& sim_;
  net::Network& network_;
  HostConfig config_;
  NodeId node_;
  Rng rng_;

  std::shared_ptr<microc::Deployment> image_;  // null until deployed

  Stage kernel_;   // per-packet work
  Stage runtime_;  // per-request dispatch
  Stage gil_;      // interpreted execution
  WorkloadId gil_last_workload_ = kInvalidWorkload;
  std::uint32_t busy_units_ = 0;

  std::uint32_t active_jobs_ = 0;  // jobs holding a service thread
  std::deque<std::unique_ptr<Job>> admission_;

  net::Reassembler reassembly_;

  // Jobs waiting for a KV reply, by ext-call token.
  proto::KvCalls<std::unique_ptr<Job>> kv_;

  HostStats stats_;
};

}  // namespace lnic::hostsim
