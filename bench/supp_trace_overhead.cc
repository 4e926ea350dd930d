// Supplementary (ours): the cost of observability.
//
// The tracing layer is bookkeeping outside simulated time, so its
// simulated latency overhead must be exactly zero — the same closed-loop
// run with tracing off and on must produce bit-identical latency
// samples. This bench asserts that, then reports the *wall-clock*
// recording cost (span allocation, annotation strings, JSON export),
// which is the only real overhead a user pays.
//
// Four rows: tracing off, sampled (1/16 of requests), full (every
// request), and full plus the NPU-grid profiler. All four must agree on
// every simulated statistic. A last section covers the flight
// recorder's per-record wall cost and checks that its ring stays
// bounded.
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "common/trace.h"
#include "framework/gateway.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct RunResult {
  std::uint64_t count = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t completed = 0;
  std::size_t spans = 0;
  double wall_ms = 0.0;    // simulation + span recording
  double export_ms = 0.0;  // one-shot Chrome JSON serialization
  std::string anomalies;   // the run's flight-recorder dump
};

RunResult run(double sample_rate, std::uint64_t total,
              std::uint32_t senders, bool profile = false) {
  const auto wall_start = std::chrono::steady_clock::now();

  sim::Simulator sim;
  net::Network network(sim);
  auto w0 =
      backends::make_backend(backends::BackendKind::kLambdaNic, sim, network);
  auto w1 =
      backends::make_backend(backends::BackendKind::kLambdaNic, sim, network);
  kvstore::CacheServer cache(sim, network);
  w0->set_kv_server(cache.node());
  w1->set_kv_server(cache.node());
  if (!w0->deploy(workloads::make_standard_workloads()).ok()) return {};
  if (!w1->deploy(workloads::make_standard_workloads()).ok()) return {};
  if (profile) {
    dynamic_cast<backends::LambdaNicBackend&>(*w0).nic().enable_profiler();
    dynamic_cast<backends::LambdaNicBackend&>(*w1).nic().enable_profiler();
  }
  sim.run_until(seconds(20));  // firmware load

  framework::Gateway gateway(sim, network);
  gateway.register_function("web_server", workloads::kWebServerId,
                            {w0->node(), w1->node()});

  trace::TraceRecorder recorder(/*max_spans=*/1 << 20, sample_rate);
  if (sample_rate > 0.0) sim.set_tracer(&recorder);

  std::uint64_t issued = 0;
  std::function<void()> issue = [&]() {
    if (issued >= total) return;
    const std::uint64_t i = issued++;
    gateway.invoke("web_server", workloads::encode_web_request(i & 3),
                   [&](Result<proto::RpcResponse>) { issue(); });
  };
  for (std::uint32_t c = 0; c < senders; ++c) issue();
  sim.run();

  RunResult result;
  const Sampler& latency = gateway.latency("web_server");
  result.count = latency.count();
  result.mean_ns = latency.mean();
  result.p50_ns = latency.median();
  result.p99_ns = latency.p99();
  result.completed = w0->completed() + w1->completed();
  result.spans = recorder.size();
  result.anomalies = sim.flight_recorder().dump();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (sample_rate > 0.0) {
    // The one-shot JSON serialization is what an exporting run pays on
    // top of recording; timed separately so per-request and end-of-run
    // costs are not conflated.
    const auto export_start = std::chrono::steady_clock::now();
    volatile std::size_t sink = recorder.to_chrome_json().size();
    (void)sink;
    result.export_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - export_start)
            .count();
  }
  return result;
}

bool identical(const RunResult& a, const RunResult& b) {
  return a.count == b.count && a.mean_ns == b.mean_ns &&
         a.p50_ns == b.p50_ns && a.p99_ns == b.p99_ns &&
         a.completed == b.completed;
}

/// Wall cost of one flight-recorder append, measured on a private ring
/// (each simulation's own recorder stays reserved for its real
/// anomalies). Also checks the ring honors its bound under sustained
/// overflow.
struct FlightrecCost {
  double ns_per_record = 0.0;
  bool bounded = false;
};

FlightrecCost measure_flightrec(std::uint64_t records) {
  flightrec::FlightRecorder ring;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < records; ++i) {
    ring.record(static_cast<SimTime>(i), flightrec::Kind::kOther, i, i >> 1,
                "synthetic anomaly");
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  FlightrecCost cost;
  cost.ns_per_record = records > 0 ? ns / static_cast<double>(records) : 0.0;
  const auto& events = ring.events();
  cost.bounded = events.size() <= events.capacity() &&
                 ring.recorded() == records &&
                 events.evicted() == records - events.capacity();
  return cost;
}

}  // namespace

int main() {
  print_header("Supplementary: tracing overhead");
  BenchSummary summary("supp_trace_overhead", /*seed=*/1);

  constexpr std::uint64_t kTotal = 4000;
  constexpr std::uint32_t kSenders = 8;

  const RunResult off = run(0.0, kTotal, kSenders);
  const RunResult sampled = run(1.0 / 16.0, kTotal, kSenders);
  const RunResult full = run(1.0, kTotal, kSenders);
  const RunResult profiled = run(1.0, kTotal, kSenders, /*profile=*/true);

  std::printf("\n  %-16s %10s %12s %12s %9s %10s %11s\n", "tracing",
              "requests", "p50 (us)", "p99 (us)", "spans", "wall (ms)",
              "export (ms)");
  const auto row = [](const char* label, const RunResult& r) {
    std::printf("  %-16s %10llu %12.2f %12.2f %9zu %10.1f %11.1f\n", label,
                static_cast<unsigned long long>(r.count), r.p50_ns / 1e3,
                r.p99_ns / 1e3, r.spans, r.wall_ms, r.export_ms);
  };
  row("off", off);
  row("sampled 1/16", sampled);
  row("full", full);
  row("full + profiler", profiled);

  const bool sim_identical = identical(off, sampled) &&
                             identical(off, full) &&
                             identical(off, profiled);
  const double wall_overhead_pct =
      off.wall_ms > 0.0 ? (full.wall_ms - off.wall_ms) / off.wall_ms * 100.0
                        : 0.0;
  std::printf("\n  simulated stats identical across rows: %s\n",
              sim_identical ? "yes" : "NO (determinism regression!)");
  std::printf("  wall-clock recording overhead (full): %.1f%%\n",
              wall_overhead_pct);

  summary.add("off/p99", off.p99_ns / 1e3, "us");
  summary.add("full/p99", full.p99_ns / 1e3, "us");
  summary.add("full/spans", static_cast<double>(full.spans), "count");
  summary.add("sim_identical", sim_identical ? 1.0 : 0.0, "bool");
  // By construction the simulated p99 delta is zero; exported so sweeps
  // can alarm on any future regression.
  summary.add("p99_overhead_pct",
              off.p99_ns > 0.0
                  ? (full.p99_ns - off.p99_ns) / off.p99_ns * 100.0
                  : 0.0,
              "%");

  // -- flight recorder: per-record wall cost, ring stays bounded --------
  constexpr std::uint64_t kFlightrecRecords = 1'000'000;
  const FlightrecCost fr = measure_flightrec(kFlightrecRecords);
  std::printf("\n  flight recorder: %.0f ns/record over %llu appends, "
              "ring bounded: %s\n",
              fr.ns_per_record,
              static_cast<unsigned long long>(kFlightrecRecords),
              fr.bounded ? "yes" : "NO");
  summary.add("flightrec_ns_per_record", fr.ns_per_record, "ns");
  summary.add("flightrec_bounded", fr.bounded ? 1.0 : 0.0, "bool");

  if (!sim_identical) {
    const RunResult& differs = !identical(off, sampled) ? sampled
                               : !identical(off, full)  ? full
                                                        : profiled;
    return bench_fail("simulated stats differ across tracing rows",
                      differs.anomalies);
  }
  if (!fr.bounded) {
    // A private ring outside any simulation: no anomalies to show.
    return bench_fail("flight recorder ring exceeded its bound", {});
  }
  return 0;
}
