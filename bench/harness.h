// Shared experiment harness for the paper-reproduction benches.
//
// Each bench binary builds one of these rigs per (backend, workload)
// cell, drives closed-loop load through an RpcClient (the gateway-side
// sender of Fig. 2), and reports latency/throughput in the same units
// the paper plots. Simulated time means results are deterministic and
// independent of the machine running the bench.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "common/stats.h"
#include "common/types.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "proto/rpc.h"
#include "sim/simulator.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::bench {

/// Produces the request payload for the i-th request of a workload.
using PayloadFn = std::function<std::vector<std::uint8_t>(std::uint64_t i)>;

struct WorkloadCase {
  std::string name;       // "Web Server", "Key-Value Client", ...
  WorkloadId workload;
  PayloadFn payload;
  std::uint64_t requests; // total requests per measurement
};

/// The three benchmark workloads with paper-faithful payloads (§6.2).
/// `image_side` controls the image transformer's input (512 -> 1 MiB).
std::vector<WorkloadCase> standard_cases(std::uint64_t web_requests,
                                         std::uint64_t kv_requests,
                                         std::uint64_t image_requests,
                                         std::uint32_t image_side = 512);

/// Per-request processing time of the (serialized) framework gateway.
/// Bounds aggregate throughput exactly as the paper's Go gateway does;
/// spent *before* the request's latency clock starts (the paper measures
/// from gateway send to response, §6.3.1).
constexpr SimDuration kGatewayProxyTime = microseconds(17);

class BackendRig {
 public:
  explicit BackendRig(backends::BackendKind kind,
                      std::uint32_t worker_threads = 56);

  /// Closed-loop measurement: `concurrency` independent senders, each
  /// issuing the next request when its previous one completes, until
  /// `total` requests finish. Returns per-request latencies (ns).
  Sampler run_closed_loop(const WorkloadCase& test, std::uint32_t concurrency);

  /// Requests per simulated second over the measurement window of the
  /// last run_closed_loop call.
  double last_throughput_rps() const { return last_throughput_; }

  backends::Backend& backend() { return *backend_; }
  kvstore::CacheServer& cache() { return *cache_; }
  sim::Simulator& sim() { return sim_; }

  /// Deploys a custom bundle instead of the standard four lambdas.
  void redeploy(workloads::WorkloadBundle bundle);

  /// Closed-loop load across several workloads, issued round-robin (the
  /// §6.3.2 contention experiment). Returns pooled latencies.
  Sampler run_round_robin(const std::vector<WorkloadId>& workloads,
                          const PayloadFn& payload, std::uint32_t concurrency,
                          std::uint64_t total_requests);

 private:
  sim::Simulator sim_;
  net::Network network_;
  std::unique_ptr<backends::Backend> backend_;
  std::unique_ptr<kvstore::CacheServer> cache_;
  std::unique_ptr<proto::RpcClient> client_;
  SimTime gateway_free_at_ = 0;
  double last_throughput_ = 0.0;
};

// ---------------------------------------------------------------- output

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Failure exit for benches with a self-check: prints the reason plus
/// `anomalies`, the dump of the failing simulation's flight recorder
/// (the always-on context for "what went wrong just before"), then
/// returns the nonzero exit code for main() to propagate.
inline int bench_fail(const std::string& why, const std::string& anomalies) {
  std::fprintf(stderr, "\nBENCH FAILURE: %s\n%s", why.c_str(),
               anomalies.c_str());
  return 1;
}

/// ECDF printed at fixed fractions, in milliseconds (Fig. 6/8 format).
void print_ecdf_ms(const std::string& label, const Sampler& latencies);

/// Mean/median/p99 row in milliseconds.
void print_latency_row(const std::string& label, const Sampler& latencies);

/// Machine-readable results next to the human tables: collects named
/// scalars and writes them as BENCH_<bench>.json in the working
/// directory, so sweeps can diff runs without scraping stdout. Written
/// on destruction (or an explicit write()).
class BenchSummary {
 public:
  explicit BenchSummary(std::string bench, std::uint64_t seed = 1);
  ~BenchSummary();

  void add(const std::string& metric, double value, const std::string& unit);

  /// "BENCH_<bench>.json"
  std::string path() const;
  void write();

 private:
  struct Entry {
    std::string metric;
    double value;
    std::string unit;
  };
  std::string bench_;
  std::uint64_t seed_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

}  // namespace lnic::bench
