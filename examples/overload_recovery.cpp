// Loss burst to recovery, end to end: the fabric blacks out for a
// second, the gateway's transport failures quarantine the workers, the
// health checker keeps probing them, and the first successful probes put
// them back in the rotation — no operator involved. Live traffic flows
// the whole time: requests during the blackout fail (each RPC gives up
// after the fixed 10 ms timer's three retries) and everything afterwards
// is served normally.
//
//   $ ./build/examples/overload_recovery [--trace trace.json]
//
// With --trace, every request is traced end to end (including the
// blackout's timed-out attempts) and the run exports Chrome trace_event
// JSON — openable in chrome://tracing or Perfetto.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "backends/backend.h"
#include "common/trace.h"
#include "framework/health.h"
#include "kvstore/cache_server.h"
#include "workloads/lambdas.h"

using namespace lnic;

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];
  }

  std::printf("loss burst -> quarantine -> probe -> reinstate\n\n");

  sim::Simulator sim;
  net::Network network(sim);
  trace::TraceRecorder recorder;

  // Two λ-NIC workers running the standard bundle.
  auto w0 = backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                                   network);
  auto w1 = backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                                   network);
  kvstore::CacheServer cache(sim, network);
  w0->set_kv_server(cache.node());
  w1->set_kv_server(cache.node());
  if (!w0->deploy(workloads::make_standard_workloads()).ok()) return 1;
  if (!w1->deploy(workloads::make_standard_workloads()).ok()) return 1;
  sim.run_until(seconds(20));  // boot

  framework::GatewayConfig config;
  config.rpc.retransmit_timeout = milliseconds(10);
  config.rpc.max_retries = 3;
  config.max_inflight_per_function = 16;
  config.max_queue_depth = 32;
  config.queue_deadline = milliseconds(20);
  framework::Gateway gateway(sim, network, config);
  gateway.register_function("web_server", workloads::kWebServerId,
                            {w0->node(), w1->node()});
  if (!trace_path.empty()) sim.set_tracer(&recorder);

  framework::HealthConfig hc;
  hc.probe_interval = milliseconds(100);
  hc.probe_timeout = milliseconds(30);
  hc.max_failures = 2;
  framework::HealthChecker checker(sim, network, gateway, hc);
  checker.watch(w0->node(), workloads::encode_web_request(0));
  checker.watch(w1->node(), workloads::encode_web_request(0));
  checker.set_on_dead([&](NodeId n) {
    std::printf("  [%7.0f ms] worker %u quarantined\n", to_ms(sim.now()), n);
  });
  checker.set_on_recovered([&](NodeId n) {
    std::printf("  [%7.0f ms] worker %u reinstated\n", to_ms(sim.now()), n);
  });
  checker.start();
  const SimTime t0 = sim.now();

  // The fabric drops everything from +300 ms to +1300 ms.
  sim.schedule(milliseconds(300), [&] {
    std::printf("  [%7.0f ms] fabric blackout begins\n", to_ms(sim.now()));
    network.set_faults(net::FaultConfig{.drop_probability = 1.0});
  });
  sim.schedule(milliseconds(1300), [&] {
    std::printf("  [%7.0f ms] fabric restored\n", to_ms(sim.now()));
    network.set_faults(net::FaultConfig{});
  });

  std::uint64_t ok = 0, errors = 0, ok_after_burst = 0;
  sim::PeriodicTimer load(sim, milliseconds(5), [&] {
    const bool after_burst = sim.now() >= t0 + milliseconds(1300);
    gateway.invoke("web_server", workloads::encode_web_request(1),
                   [&, after_burst](Result<proto::RpcResponse> r) {
                     if (r.ok()) {
                       ++ok;
                       if (after_burst) ++ok_after_burst;
                     } else {
                       ++errors;
                     }
                   });
  });
  load.start();
  sim.run_until(t0 + seconds(3));
  load.stop();
  checker.stop();
  sim.run();

  std::printf("\n  traffic: %llu ok (%llu after the burst), %llu failed "
              "during the blackout\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(ok_after_burst),
              static_cast<unsigned long long>(errors));
  std::printf("  health:  %llu quarantine(s), %llu recovery(ies)\n",
              static_cast<unsigned long long>(checker.quarantines()),
              static_cast<unsigned long long>(checker.recoveries()));
  std::printf("  gateway p99: %.3f ms, quarantined now: %zu\n",
              gateway.latency("web_server").p99() / 1e6,
              gateway.quarantined_count());

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_path.c_str());
      return 1;
    }
    out << recorder.to_chrome_json();
    std::printf("  traces:  %zu spans across %zu request(s) -> %s\n",
                recorder.size(), recorder.trace_ids().size(),
                trace_path.c_str());
  }

  const bool clean = ok_after_burst > 0 && checker.quarantines() >= 1 &&
                     checker.recoveries() == checker.quarantines() &&
                     gateway.quarantined_count() == 0 &&
                     checker.is_healthy(w0->node()) &&
                     checker.is_healthy(w1->node());
  std::printf("\n  %s\n", clean
                              ? "workers rejoined the rotation on their own; "
                                "traffic recovered without intervention."
                              : "unexpected end state!");
  return clean ? 0 : 1;
}
