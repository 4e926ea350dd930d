// Uniform Backend interface over the three execution substrates the
// evaluation compares (§6.1.1): λ-NIC, bare metal (Isolate-like), and
// containers (OpenFaaS-like). Benches and the workload manager program
// against this interface so every experiment runs identically across
// backends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "backends/calibration.h"
#include "common/result.h"
#include "common/types.h"
#include "compiler/pipeline.h"
#include "hostsim/host.h"
#include "net/network.h"
#include "nicsim/nic.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"

namespace lnic::backends {

enum class BackendKind : std::uint8_t { kLambdaNic, kBareMetal, kContainer };
const char* to_string(BackendKind kind);

/// Snapshot for Table 3: additional resources while serving load.
struct ResourceUsage {
  double host_cpu_percent = 0.0;  // of the whole 56-thread host
  Bytes host_memory = 0;
  Bytes nic_memory = 0;
};

/// Inputs to Table 4's startup comparison.
struct StartupProfile {
  Bytes artifact_bytes = 0;
  SimDuration startup_time = 0;  // download + boot + first-request ready
};

/// Deployment capacity report consumed by the placement layer (§5's
/// workload manager: "verifies if the lambdas can fit and execute on the
/// NICs ... based on available resources").
struct Capacity {
  /// Per-core instruction-store budget. kUnlimitedWords for host
  /// backends, whose programs live in ordinary DRAM.
  std::uint64_t instr_store_words = 0;
  /// Memory available to lambda state: NIC EMEM or host RAM budget.
  Bytes memory_bytes = 0;
  /// Hardware threads available to run lambdas.
  std::uint32_t threads = 0;
  /// True for SmartNIC-resident execution (the preferred target).
  bool on_nic = false;

  static constexpr std::uint64_t kUnlimitedWords =
      static_cast<std::uint64_t>(-1);
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;
  /// The fabric address requests are sent to.
  virtual NodeId node() const = 0;
  /// The compiler options this backend's firmware is built with.
  /// Backends whose options compare equal run the same firmware for the
  /// same slice, so the workload manager compiles it once for them all.
  virtual compiler::Options firmware_options() const = 0;
  /// Installs firmware compiled with firmware_options(). Every backend
  /// of a pool that runs one slice is handed the same image.
  virtual Status deploy(
      std::shared_ptr<const compiler::CompileOutput> firmware) = 0;
  /// Compiles `bundle` with firmware_options() and installs it: the
  /// one-backend shorthand for benches and examples.
  Status deploy(workloads::WorkloadBundle bundle);
  /// Resources available for lambda placement on this worker.
  virtual Capacity capacity() const = 0;
  virtual void set_kv_server(NodeId node) = 0;
  /// Additional resources consumed while serving, measured over the
  /// window [start, end] with `concurrent` requests in flight.
  virtual ResourceUsage usage(SimDuration window) const = 0;
  virtual StartupProfile startup_profile() const = 0;
  virtual std::uint64_t completed() const = 0;

  /// Tenancy hooks: assign a workload to a tenant namespace, bound a
  /// tenant's on-card resources, or evict a tenant. Host backends run
  /// each lambda in its own process/container and need no shared-card
  /// partitioning, so the defaults are no-ops; the λ-NIC backend
  /// forwards to the SmartNIC's DRR scheduler and quota admission.
  virtual void set_tenant_of(WorkloadId workload, TenantId tenant) {
    (void)workload;
    (void)tenant;
  }
  virtual void set_tenant_quota(TenantId tenant,
                                const nicsim::TenantQuota& quota) {
    (void)tenant;
    (void)quota;
  }
  virtual void undeploy_tenant(TenantId tenant) { (void)tenant; }
};

/// λ-NIC: lambdas run on the SmartNIC; host CPU stays idle (§6.4).
class LambdaNicBackend : public Backend {
 public:
  LambdaNicBackend(sim::Simulator& sim, net::Network& network,
                   nicsim::NicConfig config = lambda_nic_config());

  BackendKind kind() const override { return BackendKind::kLambdaNic; }
  NodeId node() const override { return nic_.node(); }
  compiler::Options firmware_options() const override;
  using Backend::deploy;
  Status deploy(
      std::shared_ptr<const compiler::CompileOutput> firmware) override {
    return nic_.deploy(std::move(firmware));
  }
  Capacity capacity() const override;
  void set_kv_server(NodeId node) override { nic_.set_kv_server(node); }
  ResourceUsage usage(SimDuration window) const override;
  StartupProfile startup_profile() const override;
  std::uint64_t completed() const override {
    return nic_.stats().requests_completed;
  }
  void set_tenant_of(WorkloadId workload, TenantId tenant) override {
    nic_.set_tenant(workload, tenant);
  }
  void set_tenant_quota(TenantId tenant,
                        const nicsim::TenantQuota& quota) override {
    nic_.set_tenant_quota(tenant, quota);
  }
  void undeploy_tenant(TenantId tenant) override {
    nic_.undeploy_tenant(tenant);
  }

  nicsim::SmartNic& nic() { return nic_; }

 private:
  nicsim::SmartNic nic_;
};

/// Host-resident backend covering both baselines; the HostConfig decides
/// which one (bare_metal_config() or container_config()).
class HostBackend : public Backend {
 public:
  HostBackend(sim::Simulator& sim, net::Network& network, BackendKind kind,
              hostsim::HostConfig config);

  BackendKind kind() const override { return kind_; }
  NodeId node() const override { return host_.node(); }
  compiler::Options firmware_options() const override;
  using Backend::deploy;
  Status deploy(
      std::shared_ptr<const compiler::CompileOutput> firmware) override;
  Capacity capacity() const override;
  void set_kv_server(NodeId node) override { host_.set_kv_server(node); }
  ResourceUsage usage(SimDuration window) const override;
  StartupProfile startup_profile() const override;
  std::uint64_t completed() const override {
    return host_.stats().requests_completed;
  }

  hostsim::HostServer& host() { return host_; }

 private:
  BackendKind kind_;
  hostsim::HostServer host_;
  std::uint32_t peak_concurrency_ = 0;

  friend class ConcurrencyProbe;
};

std::unique_ptr<Backend> make_backend(BackendKind kind, sim::Simulator& sim,
                                      net::Network& network,
                                      std::uint32_t worker_threads = 56);

}  // namespace lnic::backends
