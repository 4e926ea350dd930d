// Supplementary figure (ours): the D3 transport's fixed retransmission
// timer and the gateway's overload controls under loss and overload.
//
// Three experiments, all on the same 4-worker echo rig:
//  1. Loss sweep — closed-loop traffic under steady packet loss plus one
//     1-second full outage. The fixed 50 ms retransmission timer stalls
//     every dropped exchange for 50 ms and resends through the outage at
//     a constant rate, and every request still completes.
//  2. Overload — open-loop arrivals at 2x worker capacity. Without the
//     limiter the worker queues (and latency) grow with the run length;
//     with a concurrency cap + bounded queue the excess is shed fast
//     with a distinct overload error while admitted p99 stays bounded.
//  3. Recovery — a worker goes dark for a loss burst and comes back. The
//     gateway quarantines it on failover, the health checker probes it,
//     and the first successful probe reinstates it: it serves traffic
//     again with no manager intervention.
#include <cstdio>
#include <functional>

#include "bench/harness.h"
#include "framework/gateway.h"
#include "framework/health.h"
#include "loadgen/generator.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

/// N workers that echo requests after a fixed service time, serialized
/// per worker (one NPU/CPU slot each) so overload shows up as queueing.
struct EchoPool {
  sim::Simulator& sim;
  net::Network& network;
  SimDuration service;
  std::vector<NodeId> nodes;
  std::vector<SimTime> free_at;
  std::vector<std::uint64_t> served;
  std::vector<bool> alive;

  EchoPool(sim::Simulator& s, net::Network& net, std::uint32_t n,
           SimDuration service_time)
      : sim(s), network(net), service(service_time) {
    free_at.assign(n, 0);
    served.assign(n, 0);
    alive.assign(n, true);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(network.attach(nullptr));
      network.set_handler(nodes[i], [this, i](const net::Packet& p) {
        if (!alive[i] || p.kind != net::PacketKind::kRequest) return;
        const SimTime start = std::max(sim.now(), free_at[i]);
        free_at[i] = start + service;
        net::Packet reply;
        reply.src = nodes[i];
        reply.dst = p.src;
        reply.kind = net::PacketKind::kResponse;
        reply.lambda = p.lambda;
        reply.payload = {0};
        sim.schedule(free_at[i] - sim.now(), [this, i, reply] {
          ++served[i];
          network.send(reply);
        });
      });
    }
  }
};

struct LossResult {
  double p99_ms = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t failures = 0;
};

/// Closed-loop senders under `loss` steady drop probability, plus one
/// 1-second full outage (drop = 1.0) starting at t = 20 ms. A steady drop
/// stalls its exchange for one 50 ms timer; through the outage the timer
/// fires every 50 ms for the whole second.
LossResult run_loss(double loss, std::uint32_t senders, std::uint64_t total) {
  sim::Simulator sim;
  net::Network network(sim, net::FaultConfig{.drop_probability = loss},
                       /*seed=*/5);
  EchoPool pool(sim, network, 4, microseconds(20));

  framework::GatewayConfig config;
  config.failover_attempts = 0;  // isolate the transport
  config.rpc.max_retries = 60;  // 3 s of retries outlast the 1 s outage
  framework::Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, pool.nodes);

  sim.schedule(milliseconds(20), [&] {
    network.set_faults(net::FaultConfig{.drop_probability = 1.0});
    sim.schedule(seconds(1), [&] {
      network.set_faults(net::FaultConfig{.drop_probability = loss});
    });
  });

  std::uint64_t issued = 0;
  std::function<void()> issue = [&]() {
    if (issued >= total) return;
    ++issued;
    gateway.invoke("f", {1}, [&](Result<proto::RpcResponse>) { issue(); });
  };
  for (std::uint32_t c = 0; c < senders; ++c) issue();
  sim.run();

  LossResult result;
  result.p99_ms = gateway.latency("f").p99() / 1e6;
  result.retransmissions = gateway.rpc().retransmissions();
  result.failures = gateway.rpc().failures();
  return result;
}

struct OverloadResult {
  double admitted_p99_ms = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  double shed_latency_p99_ms = 0.0;
};

/// Open-loop arrivals at `rate` req/s against 4 workers * 1/service
/// capacity, for `window` of simulated time.
OverloadResult run_overload(bool limited, double rate, SimDuration window) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoPool pool(sim, network, 4, microseconds(100));  // 40 k req/s capacity

  framework::GatewayConfig config;
  config.rpc.retransmit_timeout = seconds(600);  // queueing, not loss
  if (limited) {
    config.max_inflight_per_function = 8;
    config.max_queue_depth = 32;
    config.queue_deadline = milliseconds(2);
  }
  framework::Gateway gateway(sim, network, config);
  gateway.register_function("f", 1, pool.nodes);

  OverloadResult result;
  Sampler shed_latency;
  // Deterministic open-loop arrivals, driven by the loadgen subsystem
  // (fixed-rate gap == the old hand-rolled 1e9/rate PeriodicTimer, so
  // arrivals — and the bench output — are unchanged). Offered-load
  // gauges land in the gateway registry next to gateway_*.
  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::fixed(rate);
  std::vector<loadgen::FunctionProfile> profiles(1);
  profiles[0].name = "f";
  loadgen::LoadGenerator arrival(
      sim, lg, profiles,
      [&](const loadgen::Request& req, loadgen::CompletionFn done) {
        const SimTime t0 = req.intended;
        gateway.invoke("f", {1},
                       [&, t0, done = std::move(done)](
                           Result<proto::RpcResponse> r) {
                         if (r.ok()) {
                           ++result.ok;
                         } else {
                           ++result.shed;
                           shed_latency.add(
                               static_cast<double>(sim.now() - t0));
                         }
                         done(r.ok());
                       });
      });
  arrival.set_metrics(&gateway.metrics());
  arrival.start();
  sim.run_until(window);
  arrival.stop();
  sim.run();

  result.admitted_p99_ms = gateway.latency("f").p99() / 1e6;
  result.shed_latency_p99_ms =
      shed_latency.empty() ? 0.0 : shed_latency.p99() / 1e6;
  return result;
}

}  // namespace

int main() {
  print_header("Supplementary: fixed-timer transport + overload control");
  BenchSummary summary("supp_overload", /*seed=*/5);

  // ---- 1. Loss sweep on the fixed 50 ms timer ----
  std::printf("\n-- steady loss + one 1 s outage, 16 senders, 8k req --\n");
  std::printf("  %-22s %12s %14s %10s\n", "transport", "p99 (ms)",
              "retransmits", "failures");
  for (const double loss : {0.001, 0.01}) {
    const LossResult fixed = run_loss(loss, 16, 8000);
    std::printf("  loss %.1f%%\n", loss * 100.0);
    std::printf("    %-20s %12.3f %14llu %10llu\n", "fixed 50 ms", fixed.p99_ms,
                static_cast<unsigned long long>(fixed.retransmissions),
                static_cast<unsigned long long>(fixed.failures));
    const std::string cell = "loss/" + std::to_string(loss);
    summary.add(cell + "/fixed/p99", fixed.p99_ms, "ms");
    summary.add(cell + "/fixed/retx",
                static_cast<double>(fixed.retransmissions), "count");
  }

  // ---- 2. Overload: 2x capacity, limiter off vs on ----
  std::printf("\n-- 80k req/s offered vs 40k req/s capacity, 200 ms --\n");
  std::printf("  %-22s %14s %10s %10s %16s\n", "admission", "admitted p99",
              "ok", "shed", "shed p99 (ms)");
  const OverloadResult open = run_overload(false, 80000.0, milliseconds(200));
  const OverloadResult lim = run_overload(true, 80000.0, milliseconds(200));
  std::printf("  %-22s %11.3f ms %10llu %10llu %16s\n", "unlimited (queue)",
              open.admitted_p99_ms, static_cast<unsigned long long>(open.ok),
              static_cast<unsigned long long>(open.shed), "-");
  std::printf("  %-22s %11.3f ms %10llu %10llu %16.3f\n",
              "limiter + shedding", lim.admitted_p99_ms,
              static_cast<unsigned long long>(lim.ok),
              static_cast<unsigned long long>(lim.shed),
              lim.shed_latency_p99_ms);
  summary.add("overload/unlimited/p99", open.admitted_p99_ms, "ms");
  summary.add("overload/limited/p99", lim.admitted_p99_ms, "ms");
  summary.add("overload/limited/shed", static_cast<double>(lim.shed),
              "count");
  summary.add("overload/limited/shed_p99", lim.shed_latency_p99_ms, "ms");

  // ---- 3. Quarantine -> probe -> reinstate ----
  std::printf("\n-- worker dark from 0.5 s to 1.5 s, probe every 100 ms --\n");
  {
    sim::Simulator sim;
    net::Network network(sim);
    EchoPool pool(sim, network, 2, microseconds(20));
    framework::GatewayConfig config;
    config.rpc.retransmit_timeout = milliseconds(5);
    config.rpc.max_retries = 3;
    framework::Gateway gateway(sim, network, config);
    gateway.register_function("f", 1, pool.nodes);

    framework::HealthConfig hc;
    hc.probe_interval = milliseconds(100);
    hc.probe_timeout = milliseconds(30);
    hc.max_failures = 2;
    framework::HealthChecker checker(sim, network, gateway, hc);
    for (NodeId n : pool.nodes) checker.watch(n, {1});
    SimTime quarantined_at = -1, reinstated_at = -1;
    checker.set_on_dead([&](NodeId) { quarantined_at = sim.now(); });
    checker.set_on_recovered([&](NodeId) { reinstated_at = sim.now(); });
    checker.start();

    sim.schedule(milliseconds(500), [&] { pool.alive[0] = false; });
    sim.schedule(milliseconds(1500), [&] { pool.alive[0] = true; });

    std::uint64_t ok = 0, failed = 0;
    std::uint64_t served_before_recovery = 0;
    sim.schedule(milliseconds(1500), [&] {
      served_before_recovery = pool.served[0];
    });
    // One request every 2 ms (fixed 500 req/s), on the same open-loop
    // driver as the overload experiment.
    loadgen::LoadGenConfig lg;
    lg.arrivals = loadgen::ArrivalSpec::fixed(500.0);
    std::vector<loadgen::FunctionProfile> profiles(1);
    profiles[0].name = "f";
    loadgen::LoadGenerator load(
        sim, lg, profiles,
        [&](const loadgen::Request&, loadgen::CompletionFn done) {
          gateway.invoke("f", {1},
                         [&, done = std::move(done)](
                             Result<proto::RpcResponse> r) {
                           if (r.ok()) {
                             ++ok;
                           } else {
                             ++failed;
                           }
                           done(r.ok());
                         });
        });
    load.start();
    sim.run_until(seconds(3));
    load.stop();
    checker.stop();
    sim.run();

    std::printf("  quarantined at %.0f ms, reinstated at %.0f ms\n",
                to_ms(quarantined_at), to_ms(reinstated_at));
    std::printf("  requests ok %llu, failed %llu\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(failed));
    std::printf("  worker 0 served %llu before recovery, %llu after\n",
                static_cast<unsigned long long>(served_before_recovery),
                static_cast<unsigned long long>(pool.served[0] -
                                                served_before_recovery));
    summary.add("recovery/quarantined_at", to_ms(quarantined_at), "ms");
    summary.add("recovery/reinstated_at", to_ms(reinstated_at), "ms");
    summary.add("recovery/failed", static_cast<double>(failed), "count");
    summary.add("recovery/served_after",
                static_cast<double>(pool.served[0] - served_before_recovery),
                "count");
  }

  std::printf("\n  The fixed timer rides out loss and a 1 s outage with no\n"
              "  failures; the limiter bounds admitted latency and sheds\n"
              "  the excess fast; a recovered worker rejoins the rotation\n"
              "  via quarantine -> probe -> reinstate.\n");
  return 0;
}
