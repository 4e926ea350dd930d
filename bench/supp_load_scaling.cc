// Supplementary figure (ours): web-server throughput and p99 latency as
// offered load grows from 1 to 256 closed-loop senders, per backend —
// the load-response curves behind Figures 6-8. λ-NIC's 432 lambda
// threads keep latency flat until the 10 G wire saturates; the host
// backends saturate at the GIL (bare metal) or the watchdog (container)
// almost immediately, and queueing inflates their tails.
//
// A second section scales out instead of up: a rack of 400 λ-NIC
// workers — 100x the paper's 4-worker testbed — behind one gateway,
// driven open-loop by loadgen:: Poisson arrivals. Usage:
//   supp_load_scaling [--smoke]
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "framework/gateway.h"
#include "loadgen/generator.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

/// 100x-scale rack: `workers` λ-NIC nodes behind one gateway and cache,
/// Poisson open-loop arrivals at `rate_rps` for `window`.
void run_scale_section(BenchSummary& summary, std::size_t workers,
                       double rate_rps, SimDuration window) {
  sim::Simulator sim;
  net::Network network(sim);
  kvstore::CacheServer cache(sim, network);

  std::vector<std::unique_ptr<backends::Backend>> pool;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < workers; ++i) {
    pool.push_back(backends::make_backend(backends::BackendKind::kLambdaNic,
                                          sim, network));
    pool.back()->set_kv_server(cache.node());
    if (!pool.back()->deploy(workloads::make_standard_workloads()).ok()) {
      std::fprintf(stderr, "scale section: deploy failed\n");
      return;
    }
    nodes.push_back(pool.back()->node());
  }
  sim.run_until(seconds(40));  // firmware flash across the rack

  framework::GatewayConfig config;
  config.rpc.retransmit_timeout = seconds(600);  // queueing, not loss
  framework::Gateway gateway(sim, network, config);
  gateway.register_function(loadgen::function_name(0),
                            workloads::kWebServerId, nodes);

  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::poisson(rate_rps);
  lg.duration = window;
  lg.seed = 17;
  lg.slo.deadline = milliseconds(2);
  loadgen::LoadGenerator generator(
      sim, lg, loadgen::uniform_functions(1),
      loadgen::gateway_sink(gateway, [](const loadgen::Request& request) {
        return workloads::encode_web_request(request.id & 3);
      }));

  const SimTime start = sim.now();
  generator.start();
  sim.run_until(start + window);
  generator.stop();
  sim.run();  // drain so every offered request is accounted

  const loadgen::SloReport report = generator.slo().report(window);
  std::printf("\n-- rack scale: %zu x nic workers --\n", workers);
  std::printf("  offered %8llu (%8.0f rps)  goodput %8.0f rps\n"
              "  p50 %8.3f ms  p99 %8.3f ms  deadline misses %.2f%%\n"
              "  events %llu\n",
              static_cast<unsigned long long>(report.offered),
              report.offered_rps, report.goodput_rps, report.p50_ms,
              report.p99_ms, report.violation_fraction * 100.0,
              static_cast<unsigned long long>(sim.events_dispatched()));
  summary.add("scale/workers", static_cast<double>(workers), "count");
  summary.add("scale/offered", static_cast<double>(report.offered), "count");
  summary.add("scale/goodput", report.goodput_rps, "rps");
  summary.add("scale/p50", report.p50_ms, "ms");
  summary.add("scale/p99", report.p99_ms, "ms");
  summary.add("scale/violation_frac", report.violation_fraction, "fraction");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  print_header("Supplementary: load scaling, web server");
  BenchSummary summary("supp_load_scaling", /*seed=*/1);

  const backends::BackendKind kinds[] = {
      backends::BackendKind::kLambdaNic, backends::BackendKind::kBareMetal,
      backends::BackendKind::kContainer};
  const std::uint32_t concurrencies[] = {1, 4, 16, 56, 128, 256};

  for (const auto kind : kinds) {
    std::printf("\n-- %s --\n", backends::to_string(kind));
    std::printf("  %10s %14s %14s\n", "senders", "req/s", "p99 (ms)");
    for (const auto c : concurrencies) {
      BackendRig rig(kind);
      WorkloadCase test{
          "web", workloads::kWebServerId,
          [](std::uint64_t i) { return workloads::encode_web_request(i & 3); },
          // Enough requests that the slowest backend still reaches a
          // steady state at this concurrency.
          std::max<std::uint64_t>(2000, 200ull * c)};
      if (kind != backends::BackendKind::kLambdaNic) {
        test.requests = std::max<std::uint64_t>(600, 12ull * c);
      }
      const Sampler lat = rig.run_closed_loop(test, c);
      std::printf("  %10u %14.0f %14.3f\n", c, rig.last_throughput_rps(),
                  lat.p99() / 1e6);
      const std::string cell = std::string(backends::to_string(kind)) + "/" +
                               std::to_string(c);
      summary.add(cell + "/rps", rig.last_throughput_rps(), "req/s");
      summary.add(cell + "/p99", lat.p99() / 1e6, "ms");
    }
  }
  std::printf("\n  λ-NIC latency stays flat while throughput scales to the\n"
              "  gateway/wire limit; host backends saturate within a few\n"
              "  senders and queueing inflates their tails linearly.\n");

  // 100x today's 4-worker cluster (40x under --smoke, for CI).
  run_scale_section(summary, /*workers=*/smoke ? 40 : 400,
                    /*rate_rps=*/smoke ? 50'000.0 : 200'000.0,
                    /*window=*/smoke ? milliseconds(20) : milliseconds(50));
  return 0;
}
