#include "backends/backend.h"

#include "compiler/pipeline.h"

namespace lnic::backends {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kLambdaNic: return "lambda-nic";
    case BackendKind::kBareMetal: return "bare-metal";
    case BackendKind::kContainer: return "container";
  }
  return "?";
}

namespace {
SimDuration download_time(Bytes artifact) {
  return static_cast<SimDuration>(static_cast<double>(artifact) * 8.0 /
                                  kMgmtBandwidthBps * 1e9);
}
}  // namespace

Status Backend::deploy(workloads::WorkloadBundle bundle) {
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas),
                                    firmware_options());
  if (!compiled.ok()) return compiled.error();
  return deploy(std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value()));
}

// ------------------------------------------------------------------ λ-NIC

LambdaNicBackend::LambdaNicBackend(sim::Simulator& sim, net::Network& network,
                                   nicsim::NicConfig config)
    : nic_(sim, network, config) {}

compiler::Options LambdaNicBackend::firmware_options() const {
  compiler::Options options;
  options.instruction_store_words = nic_.config().instr_store_words;
  return options;
}

Capacity LambdaNicBackend::capacity() const {
  Capacity cap;
  cap.instr_store_words = nic_.config().instr_store_words;
  cap.memory_bytes = microc::kEmemCapacity;
  cap.threads = nic_.config().lambda_threads();
  cap.on_nic = true;
  return cap;
}

ResourceUsage LambdaNicBackend::usage(SimDuration window) const {
  (void)window;
  ResourceUsage usage;
  // Host involvement is the NIC driver's housekeeping interrupts only.
  usage.host_cpu_percent = 0.1;
  usage.host_memory = 0;
  usage.nic_memory = nic_.firmware_bytes() + nic_.stats().peak_inflight_bytes +
                     /* persistent lambda globals */ 0;
  usage.nic_memory = std::max<Bytes>(usage.nic_memory, nic_.memory_in_use());
  return usage;
}

StartupProfile LambdaNicBackend::startup_profile() const {
  StartupProfile profile;
  profile.artifact_bytes = kNicFirmwareArtifact;
  profile.startup_time = download_time(profile.artifact_bytes) +
                         kNicFlashTime + kNicWarmupTime;
  return profile;
}

// ------------------------------------------------------------------- host

HostBackend::HostBackend(sim::Simulator& sim, net::Network& network,
                         BackendKind kind, hostsim::HostConfig config)
    : kind_(kind), host_(sim, network, config) {}

compiler::Options HostBackend::firmware_options() const {
  // Hosts skip the NIC-specific passes: the runtime dispatches directly,
  // so the lambdas are installed with a plain (unoptimized) match stage.
  // There is no instruction store either — programs live in DRAM, so
  // lambdas too big for the NIC (the spillover case) still deploy here.
  compiler::Options options = compiler::Options::none();
  options.instruction_store_words = Capacity::kUnlimitedWords;
  return options;
}

Status HostBackend::deploy(
    std::shared_ptr<const compiler::CompileOutput> firmware) {
  host_.deploy(
      std::shared_ptr<const microc::Program>(firmware, &firmware->program));
  return Status::ok_status();
}

Capacity HostBackend::capacity() const {
  Capacity cap;
  cap.instr_store_words = Capacity::kUnlimitedWords;
  cap.memory_bytes = kHostLambdaMemoryBudget;
  cap.threads = host_.config().worker_threads;
  cap.on_nic = false;
  return cap;
}

ResourceUsage HostBackend::usage(SimDuration window) const {
  ResourceUsage usage;
  if (window > 0) {
    usage.host_cpu_percent =
        100.0 * static_cast<double>(host_.stats().busy_time) /
        (static_cast<double>(window) * host_.config().cores);
  }
  usage.host_memory =
      kBareMetalBaseMemory +
      static_cast<Bytes>(host_.stats().peak_active_jobs) * kHostPerRequestMemory;
  if (kind_ == BackendKind::kContainer) {
    usage.host_memory += kContainerExtraMemory;
  }
  usage.nic_memory = 0;  // a plain NIC: no lambda state on the card
  return usage;
}

StartupProfile HostBackend::startup_profile() const {
  StartupProfile profile;
  if (kind_ == BackendKind::kContainer) {
    profile.artifact_bytes = kContainerArtifact;
    profile.startup_time =
        download_time(profile.artifact_bytes) +
        static_cast<SimDuration>(to_mib(profile.artifact_bytes) *
                                 kContainerUnpackPerMiB) +
        kContainerStartTime;
  } else {
    profile.artifact_bytes = kBareMetalArtifact;
    profile.startup_time =
        download_time(profile.artifact_bytes) + kBareMetalSetupTime;
  }
  return profile;
}

std::unique_ptr<Backend> make_backend(BackendKind kind, sim::Simulator& sim,
                                      net::Network& network,
                                      std::uint32_t worker_threads) {
  switch (kind) {
    case BackendKind::kLambdaNic:
      return std::make_unique<LambdaNicBackend>(sim, network);
    case BackendKind::kBareMetal:
      return std::make_unique<HostBackend>(sim, network, kind,
                                           bare_metal_config(worker_threads));
    case BackendKind::kContainer:
      return std::make_unique<HostBackend>(sim, network, kind,
                                           container_config(worker_threads));
  }
  return nullptr;
}

}  // namespace lnic::backends
