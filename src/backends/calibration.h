// Calibration constants for the three serverless backends (§6.1.1).
//
// These are the per-backend tuned constants of the reproduction: they
// pin the single-lambda, isolated operating points of Figure 6 near the
// paper's values. Everything else — tails, contention behaviour,
// throughput scaling, optimizer effects — emerges from the models.
// Sources for the magnitudes are noted inline. Facts of the one testbed
// that no backend varies (link speed, jitter, RDMA and cache service
// times, Raft timers, region budgets) are named constants where they are
// used, each with its own source.
#pragma once

#include "common/types.h"
#include "hostsim/host.h"
#include "nicsim/nic.h"

namespace lnic::backends {

// ---------------------------------------------------------------- λ-NIC
/// Netronome Agilio CX 2x10G: 56 cores x 8 threads @ 633 MHz, 2 GiB RAM,
/// 16 K instructions/core (§6.1.2). Two cores stay reserved for basic
/// NIC operations (§3.1c).
inline nicsim::NicConfig lambda_nic_config() {
  nicsim::NicConfig config;
  config.islands = 7;
  config.cores_per_island = 8;
  config.threads_per_core = 8;
  config.reserved_cores = 2;
  config.instr_store_words = 16384;
  return config;
}

// ----------------------------------------------------------- bare metal
/// Isolate-like backend: the OpenFaaS-integrated Python service running
/// as a standalone process (§6.1.1, footnote 7). Costs: kernel UDP stack
/// ~15 us/packet, scheduler wakeup + service dispatch ~110 us/request,
/// a 300 us workload switch on the interpreter (cache refill + state
/// swap), and CPython slowdowns from microc::CostModel::host_python.
inline hostsim::HostConfig bare_metal_config(std::uint32_t threads = 56) {
  hostsim::HostConfig config;
  config.cores = 56;
  config.worker_threads = threads;
  config.rx_per_packet = microseconds(15);
  config.tx_per_packet = microseconds(10);
  config.per_request = microseconds(110);
  return config;
}

/// Fig. 8's "Bare Metal (Single Core)" variant.
inline hostsim::HostConfig bare_metal_single_core_config() {
  hostsim::HostConfig config = bare_metal_config(56);
  config.cores = 1;
  return config;
}

// ------------------------------------------------------------ container
/// OpenFaaS classic-watchdog containers behind Docker + Kubernetes with
/// calico overlay networking (§6.1.2): watchdog fork/exec + gateway NAT
/// + kube-proxy conntrack ~10.3 ms/request, serialized inside the
/// container (the classic watchdog handles one request at a time);
/// veth/OVS overlay ~55 us per packet each way.
inline hostsim::HostConfig container_config(std::uint32_t threads = 56) {
  hostsim::HostConfig config;
  config.cores = 56;
  config.worker_threads = threads;
  config.serialize_runtime = true;  // one classic watchdog per container
  config.rx_per_packet = microseconds(55);
  config.tx_per_packet = microseconds(55);
  config.per_request = microseconds(10300);
  config.hiccup_max = microseconds(1500);  // cgroup throttling spikes
  return config;
}

// ------------------------------------------------- memory model (Tab. 3)
/// Resident-set additions while serving the image-transformer workload.
/// Bare metal: CPython + Pillow-style deps + service state.
constexpr Bytes kBareMetalBaseMemory = 52_MiB;
/// Extra per concurrently-executing request (request buffers, thread
/// stacks). 56 concurrent image requests add ~10.5 MiB.
constexpr Bytes kHostPerRequestMemory = 192_KiB;
/// Containers add the Docker runtime slice, pause container, overlay
/// netns and image page cache on top of the same Python service.
constexpr Bytes kContainerExtraMemory = 157_MiB;

// ------------------------------------------------- startup model (Tab. 4)
/// Artifact sizes. λ-NIC: NFP firmware ELF (base loader + our program);
/// bare metal: Python package (setuptools + wheel, §6.4); container:
/// Docker image (Python base layers + workload).
constexpr Bytes kNicFirmwareArtifact = 11_MiB;
constexpr Bytes kBareMetalArtifact = 17_MiB;
constexpr Bytes kContainerArtifact = 153_MiB;

/// Boot-phase durations (dominated by toolchain/runtime, not transfer).
constexpr SimDuration kNicFlashTime = nicsim::kFirmwareLoadTime;  // §7
constexpr SimDuration kNicWarmupTime = milliseconds(4707);  // driver re-probe
constexpr SimDuration kBareMetalSetupTime = milliseconds(4857);
constexpr SimDuration kContainerUnpackPerMiB = milliseconds(142);  // pull+untar
constexpr SimDuration kContainerStartTime = milliseconds(8690);

/// Management-network bandwidth for artifact download (1 GbE on M1).
constexpr double kMgmtBandwidthBps = 1e9;

// ------------------------------------------------ placement capacities
/// Host RAM budget a worker offers to lambda state (the testbed's Xeon
/// nodes carry 196 GiB, §6.1.2; we leave headroom for OS + runtime).
constexpr Bytes kHostLambdaMemoryBudget = 192ull * 1024_MiB;

}  // namespace lnic::backends
