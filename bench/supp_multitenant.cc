// Supplementary figure (ours): multi-tenant NPU grid under SLO pressure.
//
// Three scenarios on tenant-namespaced routes ("tenant/function") with
// DRR scheduling over the shared SmartNIC's lambda threads:
//
//  1. Noisy neighbor — victim (weight 10) and aggressor (weight 1)
//     share one WFQ NIC; the aggressor offers far more than 10x its
//     weight share while the victim trickles along. DRR must hold the
//     victim's p99 within 25% of an isolated baseline run (the
//     acceptance bar tools/check_perf.py enforces).
//  2. Tenant burst — gold/silver/bronze tenants weighted 4:2:1 under a
//     shared Zipf + on-off arrival process; per-tenant goodput and p99
//     show the weights carving the saturated card.
//  3. Scale-to-zero — an autoscaled tenant parked at zero replicas takes
//     a burst: requests fail until the SLO-signal-driven autoscaler
//     re-provisions the route after a modeled cold start, then the tail
//     collapses to warm latency.
//
// Every scenario emits per-tenant SLO rows into BENCH_supp_multitenant
// .json; results are bit-reproducible for a fixed seed.
// Usage: supp_multitenant [--smoke]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "framework/autoscaler.h"
#include "framework/gateway.h"
#include "loadgen/generator.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct Params {
  SimDuration window = milliseconds(400);
  double victim_rps = 1500.0;
  double aggressor_rps = 300000.0;
  double burst_base_rps = 3000.0;
  double burst_peak_rps = 30000.0;
  SimDuration deadline = milliseconds(2);
  std::uint64_t seed = 23;
};

/// Small WFQ card: eight lambda threads, deep queues — easy for one
/// tenant to saturate, so the scheduler (not spare capacity) provides
/// isolation, while a victim arrival's wait for a free thread (service
/// is non-preemptive) stays a fraction of one service time.
nicsim::NicConfig small_wfq_card() {
  nicsim::NicConfig config;
  config.islands = 1;
  config.cores_per_island = 4;
  config.reserved_cores = 2;
  config.threads_per_core = 4;
  config.dispatch = nicsim::DispatchPolicy::kWfq;
  config.max_queue_depth = 1000000;
  return config;
}

/// One shared SmartNIC serving a web farm, each workload owned by a
/// tenant with its own weighted route.
struct SharedCardRig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<kvstore::CacheServer> cache;
  std::unique_ptr<backends::LambdaNicBackend> backend;
  std::unique_ptr<framework::Gateway> gateway;
  std::vector<TenantId> tenants;  // by farm index

  SharedCardRig(const std::vector<std::string>& names,
                const std::vector<std::uint32_t>& weights) {
    cache = std::make_unique<kvstore::CacheServer>(sim, network);
    backend = std::make_unique<backends::LambdaNicBackend>(sim, network,
                                                           small_wfq_card());
    backend->set_kv_server(cache->node());

    framework::GatewayConfig config;
    config.rpc.retransmit_timeout = seconds(600);  // queueing, not loss
    gateway = std::make_unique<framework::Gateway>(sim, network, config);

    // One combined bundle: SmartNic::deploy replaces the whole firmware,
    // so co-resident tenants must flash together. Tenancy binds before
    // the deploy so quota admission would see it.
    nicsim::TenantWeights drr;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const WorkloadId wid = static_cast<WorkloadId>(i + 1);
      const TenantId tid = gateway->register_tenant(names[i]);
      tenants.push_back(tid);
      backend->set_tenant_of(wid, tid);
      drr[tid] = weights[i];
      gateway->register_replicas(
          names[i] + "/web", wid,
          {framework::Replica{backend->node(),
                              static_cast<std::uint8_t>(backend->kind())}},
          tid);
    }
    backend->nic().set_drr_weights(drr);
    if (!backend
             ->deploy(workloads::make_web_farm(
                 static_cast<std::uint32_t>(names.size())))
             .ok()) {
      std::fprintf(stderr, "supp_multitenant: deploy failed\n");
    }
    sim.run_until(seconds(40));  // firmware flash window
  }
};

loadgen::LoadGenConfig tenant_load(const Params& params,
                                   loadgen::ArrivalSpec arrivals,
                                   std::uint64_t seed_offset) {
  loadgen::LoadGenConfig lg;
  lg.arrivals = arrivals;
  lg.duration = params.window;
  lg.seed = params.seed + seed_offset;
  lg.slo.deadline = params.deadline;
  return lg;
}

std::unique_ptr<loadgen::LoadGenerator> make_tenant_generator(
    SharedCardRig& rig, const Params& params, const std::string& function,
    loadgen::ArrivalSpec arrivals, std::uint64_t seed_offset) {
  std::vector<loadgen::FunctionProfile> profiles = {
      loadgen::FunctionProfile{function, loadgen::PayloadDist::fixed_size(8)}};
  return std::make_unique<loadgen::LoadGenerator>(
      rig.sim, tenant_load(params, arrivals, seed_offset),
      std::move(profiles),
      loadgen::gateway_sink(*rig.gateway,
                            [](const loadgen::Request& request) {
                              return workloads::encode_web_request(request.id &
                                                                   3);
                            }));
}

void add_tenant_row(BenchSummary& summary, const std::string& prefix,
                    const loadgen::SloReport& report,
                    const std::string& function) {
  for (const auto& row : report.per_function) {
    if (row.function != function) continue;
    summary.add(prefix + "/offered", static_cast<double>(row.offered),
                "count");
    summary.add(prefix + "/goodput", row.goodput_rps, "rps");
    summary.add(prefix + "/violations",
                static_cast<double>(row.violations), "count");
    summary.add(prefix + "/p99", row.p99_ms, "ms");
    return;
  }
}

// ------------------------------------------------------ noisy neighbor

void run_noisy_neighbor(const Params& params, BenchSummary& summary) {
  std::printf("\n-- noisy neighbor (victim weight 10, aggressor weight 1)\n");

  // Isolated baseline: the victim alone on an identical card.
  double isolated_p99 = 0.0;
  {
    SharedCardRig rig({"victim", "aggressor"}, {10, 1});
    auto victim = make_tenant_generator(
        rig, params, "victim/web",
        loadgen::ArrivalSpec::poisson(params.victim_rps), 1);
    const SimTime start = rig.sim.now();
    victim->start();
    rig.sim.run_until(start + params.window);
    victim->stop();
    rig.sim.run();
    const auto report = victim->slo().report(params.window);
    isolated_p99 = report.p99_ms;
    add_tenant_row(summary, "noisy/victim_isolated", report, "victim/web");
  }

  // Shared run: the aggressor floods open-loop far beyond its share.
  SharedCardRig rig({"victim", "aggressor"}, {10, 1});
  auto victim = make_tenant_generator(
      rig, params, "victim/web",
      loadgen::ArrivalSpec::poisson(params.victim_rps), 1);
  auto aggressor = make_tenant_generator(
      rig, params, "aggressor/web",
      loadgen::ArrivalSpec::poisson(params.aggressor_rps), 2);
  const SimTime start = rig.sim.now();
  victim->start();
  aggressor->start();
  rig.sim.run_until(start + params.window);
  victim->stop();
  aggressor->stop();
  // Card service rate while the aggressor kept it saturated.
  const double capacity_rps =
      static_cast<double>(rig.backend->nic().stats().requests_completed) /
      to_sec(params.window);
  rig.sim.run_until(start + params.window + seconds(5));  // drain victim

  const auto victim_report = victim->slo().report(params.window);
  const auto aggr_report = aggressor->slo().report(params.window);
  add_tenant_row(summary, "noisy/victim_shared", victim_report, "victim/web");
  add_tenant_row(summary, "noisy/aggressor_shared", aggr_report,
                 "aggressor/web");

  // How oversubscribed was the aggressor relative to its DRR share?
  const double aggressor_share = capacity_rps * 1.0 / 11.0;
  const double saturation =
      aggressor_share > 0 ? aggr_report.offered_rps / aggressor_share : 0.0;
  summary.add("noisy/aggressor_offered_over_share", saturation, "x");
  summary.add("noisy/victim_p99_ratio",
              isolated_p99 > 0 ? victim_report.p99_ms / isolated_p99 : 0.0,
              "x");

  std::printf("  victim p99 isolated %.3f ms  shared %.3f ms  (ratio %.3f)\n",
              isolated_p99, victim_report.p99_ms,
              isolated_p99 > 0 ? victim_report.p99_ms / isolated_p99 : 0.0);
  std::printf("  aggressor offered %.0f rps = %.1fx its weight share of the "
              "card\n",
              aggr_report.offered_rps, saturation);
}

// -------------------------------------------------------- tenant burst

void run_tenant_burst(const Params& params, BenchSummary& summary) {
  std::printf("\n-- tenant burst (gold 4 : silver 2 : bronze 1, Zipf + "
              "on-off)\n");
  const std::vector<std::string> names = {"gold", "silver", "bronze"};
  SharedCardRig rig(names, {4, 2, 1});

  // One Zipf-skewed arrival process spread across the three tenants
  // (gold hottest), bursting well past the card's capacity.
  std::vector<loadgen::FunctionProfile> profiles;
  for (const auto& name : names) {
    profiles.push_back(loadgen::FunctionProfile{
        name + "/web", loadgen::PayloadDist::fixed_size(8)});
  }
  loadgen::LoadGenConfig lg = tenant_load(
      params,
      loadgen::ArrivalSpec::on_off(params.burst_peak_rps,
                                   params.burst_base_rps, milliseconds(20),
                                   milliseconds(30)),
      3);
  lg.zipf_s = 0.9;
  loadgen::LoadGenerator generator(
      rig.sim, lg, std::move(profiles),
      loadgen::gateway_sink(*rig.gateway,
                            [](const loadgen::Request& request) {
                              return workloads::encode_web_request(request.id &
                                                                   3);
                            }));
  const SimTime start = rig.sim.now();
  generator.start();
  rig.sim.run_until(start + params.window);
  generator.stop();
  rig.sim.run_until(start + params.window + seconds(5));

  const auto report = generator.slo().report(params.window);
  for (const auto& name : names) {
    add_tenant_row(summary, "burst/" + name, report, name + "/web");
  }
  // Scheduler-side view: completions per tenant class out of the DRR.
  const auto& by_class = rig.backend->nic().stats().completed_by_class;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = by_class.find(rig.tenants[i]);
    summary.add("burst/" + names[i] + "/nic_completed",
                it == by_class.end() ? 0.0
                                     : static_cast<double>(it->second),
                "count");
  }
  for (const auto& row : report.per_function) {
    std::printf("  %-12s offered %7llu  goodput %7.0f rps  p99 %8.3f ms\n",
                row.function.c_str(),
                static_cast<unsigned long long>(row.offered), row.goodput_rps,
                row.p99_ms);
  }
}

// ------------------------------------------------------- scale-to-zero

void run_scale_to_zero(const Params& params, BenchSummary& summary) {
  std::printf("\n-- scale-to-zero cold start (autoscaler, SLO signal)\n");
  SharedCardRig rig({"idlecorp"}, {1});
  sim::Simulator& sim = rig.sim;
  framework::Gateway& gateway = *rig.gateway;
  const std::string fn = "idlecorp/web";
  const TenantId tid = rig.tenants[0];
  const NodeId node = rig.backend->node();

  // The rig registered the route; the scaler owns it from here (it
  // starts the tenant parked at zero).
  const SimDuration cold_start = milliseconds(50);  // container-ish wake
  SimTime route_up_at = 0;
  std::uint32_t live_replicas = 1;
  auto provision = [&](const std::string&, std::uint32_t replicas) {
    if (replicas == 0 && live_replicas > 0) {
      gateway.remove_worker(node);
      live_replicas = 0;
    } else if (replicas > 0 && live_replicas == 0) {
      // Cold start: the route comes back only after the wake delay.
      sim.schedule(cold_start, [&, replicas] {
        gateway.register_replicas(
            fn, 1,
            {framework::Replica{
                node, static_cast<std::uint8_t>(rig.backend->kind())}},
            tid);
        if (route_up_at == 0) route_up_at = sim.now();
        live_replicas = replicas;
      });
    } else {
      live_replicas = replicas;
    }
  };

  framework::AutoscalerConfig cfg;
  cfg.evaluation_period = milliseconds(20);
  cfg.target_rps_per_replica = 2000.0;
  cfg.target_p99_ms = to_ms(params.deadline);
  cfg.min_replicas = 0;  // scale-to-zero
  cfg.max_replicas = 4;
  cfg.scale_down_evals = 3;
  cfg.scale_down_cooldown = milliseconds(150);
  framework::Autoscaler scaler(sim, gateway, cfg, provision);
  scaler.track(fn);  // provisions the floor: zero — route removed

  auto generator = make_tenant_generator(
      rig, params, fn, loadgen::ArrivalSpec::poisson(4000.0), 4);
  scaler.set_signal(loadgen::slo_signal_source(generator->slo()));
  scaler.start();

  // Idle head, then the burst arrives at a scaled-to-zero tenant.
  sim.run_until(sim.now() + milliseconds(100));
  const SimTime burst_at = sim.now();
  generator->start();
  sim.run_until(burst_at + params.window);
  generator->stop();
  // Quiet tail: hysteresis + cooldown release the replicas again.
  sim.run_until(burst_at + params.window + seconds(1));
  scaler.stop();
  sim.run();

  const auto report = generator->slo().report(params.window);
  const double cold_ms =
      route_up_at > 0 ? to_ms(route_up_at - burst_at) : -1.0;
  add_tenant_row(summary, "scalezero/idlecorp", report, fn);
  summary.add("scalezero/cold_failures",
              static_cast<double>(report.failed), "count");
  summary.add("scalezero/time_to_route_ms", cold_ms, "ms");
  summary.add("scalezero/final_replicas",
              static_cast<double>(scaler.replicas(fn)), "count");
  summary.add("scalezero/scale_events",
              static_cast<double>(scaler.scale_events()), "count");

  std::printf("  burst at parked tenant: %llu cold failures, route up "
              "after %.1f ms\n",
              static_cast<unsigned long long>(report.failed), cold_ms);
  std::printf("  warm p99 %.3f ms, final replicas %u (scale events %llu)\n",
              report.p99_ms, scaler.replicas(fn),
              static_cast<unsigned long long>(scaler.scale_events()));
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      params.window = milliseconds(150);
      params.aggressor_rps = 250000.0;
      params.burst_peak_rps = 15000.0;
    }
  }

  print_header("Supplementary: multi-tenant NPU grid (DRR + quotas + SLO "
               "autoscaling)");
  std::printf("  window %.0f ms, deadline %.1f ms, seed %llu\n",
              to_ms(params.window), to_ms(params.deadline),
              static_cast<unsigned long long>(params.seed));

  BenchSummary summary("supp_multitenant", params.seed);
  run_noisy_neighbor(params, summary);
  run_tenant_burst(params, summary);
  run_scale_to_zero(params, summary);

  std::printf("\n  DRR turns the shared card into a weighted grid: the\n"
              "  aggressor's backlog stays in the aggressor's queue, the\n"
              "  victim's p99 tracks its isolated baseline, and a parked\n"
              "  tenant pays exactly one cold start before the SLO loop\n"
              "  holds its tail at warm latency.\n");
  return 0;
}
