// Cluster-path benchmark: open-loop loadgen traffic through the public
// core::Cluster path (gateway -> RPC -> fabric -> NIC dispatch -> Micro-C
// lambda -> response) on three named workloads.
//
//   lnic_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out DIR]
//   lnic_perfbench --selftest [--seed N]
//
// A run repeats *rounds* until S host seconds have passed. A round builds
// a fresh cluster (timed as set-up, up to the first offered request),
// offers a fixed number of requests, and drains. Rounds with one seed are
// the same simulation, so their simulated results must agree exactly
// (checked), while host-time results are reported as medians over rounds,
// in reference seconds (probe.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates plain and
// traced rounds: the traced ones record host-time spans around the calls
// into each layer, replay the round's lambda invocations and packets, and
// print the per-layer ledger (see ledger.h) plus the tracing overhead.
// Spans are written as Chrome JSON to DIR/trace_<workload>.json.
//
// Every response is checked (workloads.h), and the replay must reproduce
// the simulation's NIC executions and cycle counts exactly. Any failure
// makes the run exit 1 with "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backend.h"
#include "common/buffer.h"
#include "compiler/pipeline.h"
#include "core/cluster.h"
#include "loadgen/generator.h"
#include "perfbench/ledger.h"
#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace lnic::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Simulated time between the host-time samples of a round's traffic.
constexpr SimDuration kSlice = milliseconds(10);
/// Set-up is short next to a round's traffic, so every round times it
/// this many more times (without traffic) for a steadier median.
constexpr int kExtraSetups = 4;
/// Host time between speed-probe samples inside a round's traffic.
constexpr auto kProbeEvery = std::chrono::milliseconds(25);

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = ".";
};

/// Cumulative counters read just before and just after a round's
/// traffic; their differences are the round's counts.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t executions = 0;
  std::uint64_t nic_drops = 0;
  kvstore::CacheStats cache;
  // Per-NIC sample counts, so the round's samples are a suffix.
  std::vector<std::size_t> cycle_samples;
  std::vector<std::size_t> wait_samples;
};

std::vector<const nicsim::SmartNic*> nics(core::Cluster& cluster) {
  std::vector<const nicsim::SmartNic*> out;
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    if (auto* nic = dynamic_cast<backends::LambdaNicBackend*>(
            &cluster.worker(i))) {
      out.push_back(&nic->nic());
    }
  }
  return out;
}

Counters read_counters(core::Cluster& cluster) {
  Counters c;
  c.events = cluster.sharded().events_dispatched();
  c.packets = cluster.network().packets_sent();
  c.bytes = cluster.network().bytes_sent();
  c.net_drops = cluster.network().packets_dropped();
  c.retransmits = cluster.gateway().rpc().retransmissions();
  c.cache = cluster.cache().stats();
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    c.executions += cluster.worker(i).completed();
  }
  for (const nicsim::SmartNic* nic : nics(cluster)) {
    const nicsim::NicStats& s = nic->stats();
    c.nic_drops += s.requests_dropped_down + s.requests_dropped_queue;
    c.cycle_samples.push_back(s.service_cycles.count());
    c.wait_samples.push_back(s.queue_wait_ns.count());
  }
  return c;
}

/// What one round measured. The simulated fields (everything but the
/// host times and the traced extras) are identical for one seed.
struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;  // host time inside run_until during the traffic
  // Reference time (probe.h) of the same: each stretch between two probe
  // samples divided by the mean of those two samples.
  double run_ref_s = 0.0;
  // Mean probe sample around the set-up, and over the traffic.
  double setup_speed = 1.0;
  double run_speed = 1.0;

  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // transport errors, sheds and wrong answers
  std::uint64_t wrong = 0;   // responses failing the output check
  std::uint64_t late = 0;
  double p50_ns = 0.0, p99_ns = 0.0, p999_ns = 0.0;
  double goodput_rps = 0.0;
  std::uint64_t latency_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t executions = 0;
  std::uint64_t service_cycles = 0;
  std::uint64_t nic_drops = 0;
  double queue_wait_p99_ns = 0.0;
  Bytes peak_inflight_bytes = 0;
  std::uint64_t cache_gets = 0;
  std::uint64_t cache_sets = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t bytes_shared = 0;
  bool lossless = true;
  NodeId gateway = kInvalidNode;

  // Traced rounds only.
  std::uint64_t metric_series = 0;
  std::uint64_t latency_samples_held = 0;

  /// The simulated results and counts, as one comparable line.
  std::string digest() const {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"offered\": %" PRIu64 ", \"completed\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"wrong\": %" PRIu64 ", \"late\": %" PRIu64
        ", \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f"
        ", \"goodput_rps\": %.6f, \"latency_hash\": \"%016" PRIx64 "\""
        ", \"events\": %" PRIu64 ", \"packets\": %" PRIu64
        ", \"bytes\": %" PRIu64 ", \"net_drops\": %" PRIu64
        ", \"retransmits\": %" PRIu64 ", \"executions\": %" PRIu64
        ", \"service_cycles\": %" PRIu64 ", \"nic_drops\": %" PRIu64
        ", \"queue_wait_p99_ns\": %.0f, \"peak_inflight_bytes\": %" PRIu64
        ", \"cache_gets\": %" PRIu64 ", \"cache_sets\": %" PRIu64
        ", \"cache_hits\": %" PRIu64 ", \"bytes_copied\": %" PRIu64
        ", \"bytes_shared\": %" PRIu64 "}",
        offered, completed, failed, wrong, late, p50_ns, p99_ns, p999_ns,
        goodput_rps, latency_hash, events, packets, bytes, net_drops,
        retransmits, executions, service_cycles, nic_drops, queue_wait_p99_ns,
        static_cast<std::uint64_t>(peak_inflight_bytes), cache_gets,
        cache_sets, cache_hits, bytes_copied, bytes_shared);
    return buf;
  }
};

/// What a traced round keeps for the replays and the span export.
struct Tracing {
  HostSpans spans;
  net::PacketTracer packets;
  std::vector<Call> warm;
  std::vector<Call> calls;
  std::unique_ptr<Workload> workload;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// when the round is not traced.
class Phase {
 public:
  Phase(HostSpans* spans, const char* name, trace::SpanId parent)
      : spans_(spans),
        span_(spans ? spans->open(name, parent) : trace::kInvalidSpan) {}
  ~Phase() {
    if (spans_) spans_->close(span_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  trace::SpanId id() const { return span_; }

 private:
  HostSpans* spans_;
  trace::SpanId span_;
};

std::uint64_t fnv1a(const std::vector<double>& samples) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const double v : samples) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001B3ull;
  }
  return h;
}

/// One round; with `setup_only` it stops at the first offered request.
Result<Round> run_round(const std::string& name, std::uint64_t seed,
                        std::uint64_t requests, SpeedProbe& probe,
                        Tracing* tracing, bool setup_only = false) {
  HostSpans* spans = tracing ? &tracing->spans : nullptr;
  Round round;
  const double speed_before = probe.sample();
  const auto t0 = Clock::now();
  Phase whole(spans, "round", trace::kInvalidSpan);

  // ---- Set-up: everything up to the first offered request.
  std::unique_ptr<Workload> workload = make_workload(name, seed, requests);
  std::unique_ptr<core::Cluster> cluster;
  {
    Phase p(spans, "core.cluster", whole.id());
    cluster = std::make_unique<core::Cluster>(workload->cluster_config());
  }
  {
    Phase p(spans, "core.deploy", whole.id());
    auto record = cluster->deploy(workload->bundle());
    if (!record.ok()) return record.error();
  }
  {
    Phase p(spans, "core.ready", whole.id());
    cluster->wait_until_ready();
  }
  std::vector<Call> warm;
  {
    Phase p(spans, "setup.install", whole.id());
    if (auto s = workload->install(*cluster, warm); !s.ok()) return s.error();
  }

  framework::Gateway& gateway = cluster->gateway();
  std::uint64_t wrong = 0;
  SimTime last_offered = 0;
  trace::SpanId slice = trace::kInvalidSpan;  // parent of hot-path spans
  loadgen::Sink sink = [&](const loadgen::Request& request,
                           loadgen::CompletionFn done) {
    Call call = workload->make_call(request);
    last_offered = request.intended;
    if (tracing) tracing->calls.push_back(call);
    const std::string& alias = workload->aliases()[call.fn];
    BufferView payload = call.payload;
    auto reply = [&, call = std::move(call), done = std::move(done)](
                     Result<proto::RpcResponse> r) {
      bool ok = r.ok();
      if (ok && !workload->check(call, r.value().payload)) {
        ++wrong;
        ok = false;
      }
      if (spans == nullptr) return done(ok);
      const SimTime start = spans->now();
      done(ok);
      spans->add("loadgen.complete", slice, start);
    };
    if (spans == nullptr) {
      return gateway.invoke(alias, std::move(payload), std::move(reply));
    }
    const SimTime start = spans->now();
    gateway.invoke(alias, std::move(payload), std::move(reply));
    spans->add("framework.invoke", slice, start);
  };
  loadgen::LoadGenerator generator(cluster->sim(), workload->load(),
                                   workload->profiles(), std::move(sink));
  generator.set_metrics(&gateway.metrics());
  round.setup_s = seconds_since(t0);
  std::vector<double> speeds = {probe.sample()};
  round.setup_speed = (speed_before + speeds.front()) / 2;
  if (setup_only) return round;
  double unscaled = 0.0;  // host seconds since the last probe sample
  auto sample_speed = [&] {
    const double speed = probe.sample();
    round.run_ref_s += unscaled / ((speeds.back() + speed) / 2);
    unscaled = 0.0;
    speeds.push_back(speed);
  };

  // ---- Traffic: offer the round's requests and drain.
  const Counters before = read_counters(*cluster);
  reset_copy_stats();
  if (tracing) {
    tracing->packets.set_capacity(std::size_t{1} << 23);
    cluster->network().set_tracer(&tracing->packets);
  }
  const SimTime start = cluster->sim().now();
  {
    Phase traffic(spans, "traffic", whole.id());
    generator.start();
    auto probed = Clock::now();
    while (!generator.drained()) {
      if (cluster->sim().now() - start > seconds(600)) {
        return make_error("round did not drain");
      }
      const auto t1 = Clock::now();
      {
        Phase p(spans, "sim.run_until", traffic.id());
        slice = p.id();
        cluster->sharded().run_until(cluster->sim().now() + kSlice);
      }
      const auto t2 = Clock::now();
      const double took = std::chrono::duration<double>(t2 - t1).count();
      round.run_s += took;
      unscaled += took;
      if (t2 - probed >= kProbeEvery) {
        sample_speed();
        probed = Clock::now();
      }
    }
  }
  sample_speed();
  round.run_speed = mean_speed(speeds);
  cluster->network().set_tracer(nullptr);

  // ---- Results.
  const Counters after = read_counters(*cluster);
  const CopyStats copies = copy_stats();
  const loadgen::SloTracker& slo = generator.slo();
  const loadgen::SloReport report = slo.report(last_offered - start);
  round.offered = generator.offered();
  round.completed = generator.completed();
  round.failed = generator.failed();
  round.wrong = wrong;
  round.late = report.late;
  round.goodput_rps = report.goodput_rps;
  round.p50_ns = slo.latency().percentile(50.0);
  round.p99_ns = slo.latency().percentile(99.0);
  round.p999_ns = slo.latency().percentile(99.9);
  round.latency_hash = fnv1a(slo.latency().samples());
  round.events = after.events - before.events;
  round.packets = after.packets - before.packets;
  round.bytes = after.bytes - before.bytes;
  round.net_drops = after.net_drops - before.net_drops;
  round.retransmits = after.retransmits - before.retransmits;
  round.executions = after.executions - before.executions;
  round.nic_drops = after.nic_drops - before.nic_drops;
  round.cache_gets = after.cache.gets - before.cache.gets;
  round.cache_sets = after.cache.sets - before.cache.sets;
  round.cache_hits = after.cache.hits - before.cache.hits;
  round.bytes_copied = copies.bytes_copied;
  round.bytes_shared = copies.bytes_shared;
  round.lossless = workload->cluster_config().faults.drop_probability == 0.0;
  round.gateway = gateway.node();
  Sampler waits;
  const auto nic_list = nics(*cluster);
  for (std::size_t n = 0; n < nic_list.size(); ++n) {
    const nicsim::NicStats& s = nic_list[n]->stats();
    const auto& cycles = s.service_cycles.samples();
    for (std::size_t i = before.cycle_samples[n]; i < cycles.size(); ++i) {
      round.service_cycles += static_cast<std::uint64_t>(cycles[i]);
    }
    const auto& wait = s.queue_wait_ns.samples();
    for (std::size_t i = before.wait_samples[n]; i < wait.size(); ++i) {
      waits.add(wait[i]);
    }
    round.peak_inflight_bytes =
        std::max(round.peak_inflight_bytes, s.peak_inflight_bytes);
  }
  round.queue_wait_p99_ns = waits.empty() ? 0.0 : waits.p99();

  if (tracing) {
    std::istringstream lines(gateway.metrics().render());
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty() && line[0] != '#') ++round.metric_series;
    }
    for (const std::string& alias : workload->aliases()) {
      round.latency_samples_held += gateway.latency(alias).count();
    }
    tracing->warm = std::move(warm);
    tracing->workload = std::move(workload);
  }
  return round;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double per(double count, double base) { return base > 0 ? count / base : 0; }

/// Checks that hold for every round; appends a line per failure.
void check_round(const Round& r, std::vector<std::string>& problems) {
  if (r.wrong) {
    problems.push_back(std::to_string(r.wrong) + " wrong responses");
  }
  if (r.completed + r.failed != r.offered) {
    problems.push_back("completions do not add up to offered requests");
  }
  if (r.lossless ? r.executions != r.offered : r.executions < r.offered) {
    problems.push_back("NIC executions " + std::to_string(r.executions) +
                       " for " + std::to_string(r.offered) + " requests");
  }
}

// ------------------------------------------------------------------ modes

/// Requests completed per reference second of a round's traffic.
double ref_rate(const Round& r) {
  return static_cast<double>(r.completed) / r.run_ref_s;
}

/// A traced round's counts and replays, with its host times in reference
/// time (probe.h): the traffic spans scaled by the round's probe speed,
/// the replays by probe samples taken around them.
struct TracedExtras {
  Round round;
  MicrocReplay microc;
  NetReplay net;
  double invoke_ns = 0.0;    // every framework.invoke span
  double complete_ns = 0.0;  // every loadgen.complete span
  double slices_ns = 0.0;    // every sim.run_until slice
  double microc_ns = 0.0;
  double net_ns = 0.0;
  double compile_s = 0.0;
  double deploy_s = 0.0;
  double ready_s = 0.0;
};

/// Runs the replays of a traced round and checks them against the
/// simulation's own counts.
Result<TracedExtras> finish_traced(Round round, Tracing& tracing,
                                   SpeedProbe& probe,
                                   std::vector<std::string>& problems) {
  TracedExtras x;
  const Workload& workload = *tracing.workload;
  const std::vector<std::uint32_t> executions = executions_per_call(
      tracing.packets, round.gateway, workload, tracing.calls);
  if (executions.empty()) {
    problems.push_back("packet records do not line up with offered requests");
  }

  const double speed_before = probe.sample();
  workloads::WorkloadBundle bundle = workload.bundle();
  compiler::Options options;
  options.instruction_store_words =
      backends::lambda_nic_config().instr_store_words;
  const SimTime c0 = tracing.spans.now();
  auto compiled =
      compiler::compile(bundle.spec, std::move(bundle.lambdas), options);
  tracing.spans.add("compiler.compile", trace::kInvalidSpan, c0);
  if (!compiled.ok()) return compiled.error();
  const double compile_ns = static_cast<double>(tracing.spans.now() - c0);

  if (!executions.empty()) {
    const SimTime m0 = tracing.spans.now();
    x.microc = replay_microc(workload, compiled.value().program,
                             round.gateway, tracing.warm, tracing.calls,
                             executions);
    tracing.spans.add("microc.replay", trace::kInvalidSpan, m0);
    if (x.microc.wrong) {
      problems.push_back(std::to_string(x.microc.wrong) +
                         " wrong replayed responses");
    }
    if (x.microc.executions != round.executions ||
        x.microc.cycles != round.service_cycles) {
      problems.push_back(
          "replay identity broken: " + std::to_string(x.microc.executions) +
          " executions / " + std::to_string(x.microc.cycles) +
          " cycles replayed, " + std::to_string(round.executions) + " / " +
          std::to_string(round.service_cycles) + " in simulation");
    }
  }
  const SimTime n0 = tracing.spans.now();
  x.net = replay_net(tracing.packets, round.gateway);
  tracing.spans.add("net.replay", trace::kInvalidSpan, n0);
  if (x.net.packets == 0) problems.push_back("packet replay lost packets");
  if (tracing.spans.dropped()) problems.push_back("span recorder overflowed");
  const double replay_speed = (speed_before + probe.sample()) / 2;

  std::map<std::string, SimDuration> totals = tracing.spans.totals();
  auto total = [&](const char* name) {
    return static_cast<double>(totals[name]);
  };
  x.invoke_ns = total("framework.invoke") / round.run_speed;
  x.complete_ns = total("loadgen.complete") / round.run_speed;
  x.slices_ns = round.run_ref_s * 1e9;
  x.deploy_s = total("core.deploy") / 1e9 / round.setup_speed;
  x.ready_s = total("core.ready") / 1e9 / round.setup_speed;
  x.microc_ns = static_cast<double>(x.microc.wall_ns) / replay_speed;
  x.net_ns = static_cast<double>(x.net.wall_ns) / replay_speed;
  x.compile_s = compile_ns / 1e9 / replay_speed;
  x.round = std::move(round);
  return x;
}

int run_benchmark(const Options& o) {
  SpeedProbe probe;
  std::vector<Round> plain;
  std::vector<TracedExtras> traced;
  std::vector<std::string> problems;
  std::vector<double> setup;
  std::unique_ptr<Tracing> last_traced;  // its spans are exported
  const auto t0 = Clock::now();
  do {
    auto r = run_round(o.workload, o.seed, 0, probe, nullptr);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", r.error().message.c_str());
      return 2;
    }
    plain.push_back(std::move(r).value());
    setup.push_back(plain.back().setup_s / plain.back().setup_speed);
    for (int i = 0; i < kExtraSetups; ++i) {
      auto s = run_round(o.workload, o.seed, 0, probe, nullptr, true);
      if (!s.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", s.error().message.c_str());
        return 2;
      }
      setup.push_back(s.value().setup_s / s.value().setup_speed);
    }
    if (o.trace) {
      auto tracing = std::make_unique<Tracing>();
      auto t = run_round(o.workload, o.seed, 0, probe, tracing.get());
      if (!t.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", t.error().message.c_str());
        return 2;
      }
      auto x = finish_traced(std::move(t).value(), *tracing, probe, problems);
      if (!x.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", x.error().message.c_str());
        return 2;
      }
      traced.push_back(std::move(x).value());
      last_traced = std::move(tracing);
    }
  } while (seconds_since(t0) < o.seconds);

  const Round& first = plain.front();
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> rps, raw_rps, speeds;
  for (const Round& r : plain) {
    check_round(r, problems);
    if (r.digest() != first.digest()) {
      problems.push_back("simulated results differ between rounds");
    }
    attempted += r.offered;
    failed += r.failed;
    rps.push_back(ref_rate(r));
    raw_rps.push_back(static_cast<double>(r.completed) / r.run_s);
    speeds.push_back(r.run_speed);
  }
  for (const TracedExtras& x : traced) {
    check_round(x.round, problems);
    if (x.round.digest() != first.digest()) {
      problems.push_back("tracing changed the simulated results");
    }
  }

  std::printf("perfbench %s seed=%" PRIu64 " rounds=%zu traced=%zu\n",
              o.workload.c_str(), o.seed, plain.size(), traced.size());
  std::printf("digest %s\n", first.digest().c_str());
  std::printf("host: median %.1f req/s unscaled, median probe speed %.3f\n",
              median(raw_rps), median(speeds));
  for (const std::string& p : problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }

  const double offered = static_cast<double>(first.offered);
  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"req_per_s", median(rps), "req/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
        {"sim_p50_us", first.p50_ns / 1e3, "us"},
        {"sim_p99_us", first.p99_ns / 1e3, "us"},
        {"sim_p999_us", first.p999_ns / 1e3, "us"},
        {"sim_goodput_rps", first.goodput_rps, "req/s"},
        {"success_frac", per(static_cast<double>(first.completed), offered),
         "fraction"},
    };
  } else {
    const std::string path = o.out_dir + "/trace_" + o.workload + ".json";
    std::ofstream(path) << last_traced->spans.to_chrome_json();
    std::printf("spans: %s\n", path.c_str());

    // Host times: medians over the traced rounds. Counts: identical in
    // every round, taken from the first.
    auto med = [&](auto&& f) {
      std::vector<double> v;
      for (const TracedExtras& x : traced) v.push_back(f(x));
      return median(v);
    };
    const TracedExtras& t = traced.front();
    const Round& r = t.round;
    const double traced_rps =
        med([](const TracedExtras& x) { return ref_rate(x.round); });
    metrics = {
        {"microc.ns_per_req",
         med([&](const TracedExtras& x) {
           return per(x.microc_ns, offered);
         }),
         "ns"},
        {"microc.ns_per_instr",
         med([](const TracedExtras& x) {
           return per(x.microc_ns, static_cast<double>(x.microc.instructions));
         }),
         "ns"},
        {"microc.instr_per_req",
         per(static_cast<double>(t.microc.instructions), offered), "count"},
        {"microc.cycles_per_req",
         per(static_cast<double>(t.microc.cycles), offered), "count"},
        {"framework.invoke_ns",
         med([&](const TracedExtras& x) {
           return per(x.invoke_ns, offered);
         }),
         "ns"},
        {"framework.metric_series", static_cast<double>(r.metric_series),
         "count"},
        {"framework.latency_samples_held",
         static_cast<double>(r.latency_samples_held), "count"},
        {"loadgen.complete_ns",
         med([&](const TracedExtras& x) {
           return per(x.complete_ns, offered);
         }),
         "ns"},
        {"proto.retransmits_per_kreq",
         per(1e3 * static_cast<double>(r.retransmits), offered), "count"},
        {"nicsim.exec_per_req", per(static_cast<double>(r.executions), offered),
         "count"},
        {"nicsim.queue_wait_p99_us", r.queue_wait_p99_ns / 1e3, "us"},
        {"nicsim.drops", static_cast<double>(r.nic_drops), "count"},
        {"nicsim.peak_inflight_kb",
         static_cast<double>(r.peak_inflight_bytes) / 1024.0, "KiB"},
        {"net.packets_per_req", per(static_cast<double>(r.packets), offered),
         "count"},
        {"net.bytes_per_req", per(static_cast<double>(r.bytes), offered), "B"},
        {"net.drops", static_cast<double>(r.net_drops), "count"},
        {"net.ns_per_packet",
         med([](const TracedExtras& x) {
           return per(x.net_ns, static_cast<double>(x.net.packets));
         }),
         "ns"},
        {"common.bytes_copied_per_req",
         per(static_cast<double>(r.bytes_copied), offered), "B"},
        {"common.bytes_shared_per_req",
         per(static_cast<double>(r.bytes_shared), offered), "B"},
        {"sim.events_per_req", per(static_cast<double>(r.events), offered),
         "count"},
        {"sim.ns_per_event",
         med([](const TracedExtras& x) {
           return per(x.slices_ns, static_cast<double>(x.round.events));
         }),
         "ns"},
        {"kvstore.cache_gets", static_cast<double>(r.cache_gets), "count"},
        {"kvstore.cache_sets", static_cast<double>(r.cache_sets), "count"},
        {"kvstore.cache_hit_frac",
         per(static_cast<double>(r.cache_hits),
             static_cast<double>(r.cache_gets)),
         "fraction"},
        {"compiler.compile_s",
         med([](const TracedExtras& x) { return x.compile_s; }), "s"},
        {"core.deploy_s",
         med([](const TracedExtras& x) { return x.deploy_s; }),
         "s"},
        {"core.ready_s",
         med([](const TracedExtras& x) { return x.ready_s; }),
         "s"},
        {"residual_s",
         med([&](const TracedExtras& x) {
           return (x.slices_ns - x.invoke_ns - x.complete_ns - x.microc_ns) /
                  1e9;
         }),
         "s"},
        {"trace.req_per_s", traced_rps, "req/s"},
        {"trace.overhead_frac", median(rps) / traced_rps - 1.0, "fraction"},
    };
  }
  print_result(problems.empty(), attempted, failed, metrics);
  return problems.empty() ? 0 : 1;
}

/// Each workload, briefly: two rounds with one seed must give identical
/// simulated results, a round with the next seed different ones.
int run_selftest(const Options& o) {
  SpeedProbe probe;
  bool pass = true;
  for (const std::string& name : workload_names()) {
    std::string digests[3];
    const std::uint64_t seeds[3] = {o.seed, o.seed, o.seed + 1};
    for (int i = 0; i < 3; ++i) {
      auto r = run_round(name, seeds[i], 2000, probe, nullptr);
      if (!r.ok()) {
        std::printf("selftest %s: %s\n", name.c_str(),
                    r.error().message.c_str());
        return 2;
      }
      std::vector<std::string> problems;
      check_round(r.value(), problems);
      for (const std::string& p : problems) {
        std::printf("selftest %s: %s\n", name.c_str(), p.c_str());
        pass = false;
      }
      digests[i] = r.value().digest();
    }
    const bool same = digests[0] == digests[1];
    const bool differs = digests[0] != digests[2];
    std::printf("selftest %-10s same seed identical: %s, next seed differs: "
                "%s\n",
                name.c_str(), same ? "yes" : "NO", differs ? "yes" : "NO");
    pass = pass && same && differs;
  }
  return pass ? 0 : 1;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out") {
      o.out_dir = v;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return o.selftest ||
         std::find(names.begin(), names.end(), o.workload) != names.end();
}

}  // namespace
}  // namespace lnic::perfbench

int main(int argc, char** argv) {
  lnic::perfbench::Options options;
  if (!lnic::perfbench::parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: lnic_perfbench --workload faas_mix|nic_kv_rw|"
                 "image_rdma --seed N --seconds S --trace 0|1 [--out DIR]\n"
                 "       lnic_perfbench --selftest [--seed N]\n");
    return 2;
  }
  return options.selftest ? lnic::perfbench::run_selftest(options)
                          : lnic::perfbench::run_benchmark(options);
}
