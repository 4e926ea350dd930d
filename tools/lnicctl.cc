// lnicctl — the λ-NIC developer command-line tool.
//
// Drives the full Listing 1-3 workflow on files:
//
//   lnicctl compile lambda.mc --p4 match.p4 -o firmware.lnfw [--no-opt]
//       Compile Micro-C source (+ a P4 match spec) into a firmware
//       artifact; prints the per-stage code sizes (the Fig. 9 series).
//
//   lnicctl disasm firmware.lnfw
//       Disassemble a firmware artifact (objects, parser, functions).
//
//   lnicctl run firmware.lnfw --wid N [--op X] [--key K] [--value V]
//               [--cost npu|host|python]
//       Execute one invocation against the artifact and print the
//       response, return code, and cycle/latency accounting.
//
//   lnicctl trace <web|kv|image> [--requests N] [--retransmit]
//                 [--backend nic|baremetal|container] [--out trace.json]
//       Run traced requests through an in-process cluster and write the
//       Chrome trace_event JSON plus a critical-path breakdown.
//
//   lnicctl metrics [--requests N] [--backend nic|baremetal|container]
//                   [--filter <prefix>]
//       Run a short workload and print the Prometheus exposition of the
//       gateway and monitoring-engine registries (incl. NPU-grid
//       gauges). --filter keeps only series whose name starts with the
//       prefix.
//
//   lnicctl flightrec [--requests N]
//       Run a short workload through an overloaded, lossy cluster and
//       dump the flight recorder's anomaly ring (sheds, quarantines,
//       RTO backoffs) — the "what went wrong just before" view.
//
//   lnicctl timeline [--requests N] [--tenant <name>]
//                    [--out timeline.json]
//       Run traced requests and write the unified Perfetto timeline:
//       request spans and per-NPU busy tracks in one JSON, both on the
//       simulated-time axis. With --tenant the bundle deploys
//       tenant-namespaced, so nic.*/host.* spans carry tenant
//       annotations.
//
//   lnicctl loadgen poisson [--rate R] [--duration-ms D] [--functions N]
//                   [--zipf S] [--deadline-us U] [--backend ...]
//       Drive open-loop Poisson load, Zipf-distributed over N function
//       aliases, through a live cluster; print the SLO report and the
//       offered-load gauges. R x D may offer at most 1,000,000 requests.
//
//   lnicctl loadgen trace <file> [--deadline-us U] [--expect N]
//                   [--backend ...]
//       Replay a recorded/synthesized trace open-loop; with --expect,
//       fail unless exactly N requests were offered.
//
//   lnicctl loadgen synth [--out <file>] [--pattern constant|diurnal|burst]
//                   [--duration-ms D] [--rate R] [--peak P] [--functions N]
//                   [--zipf S] [--seed X]
//       Synthesize a deterministic trace file in the lnic-trace format.
//       The larger of R and P, over D, may offer at most 1,000,000
//       requests.
//
//   lnicctl kv [--mix A..F|tpcc] [--proto no_wait|wait_die] [--txns N]
//              [--zipf S] [--warehouses W] [--cache N] [--rate R]
//              [--seed X] [--metrics]
//       Drive one transactional-store cell (YCSB mix or TPC-C-lite
//       new-order over W = 1..1024 warehouses) through the NIC-resident
//       TxnStore's networked path and print commit/abort/latency/cache
//       rows; with --metrics, also the kv_* series as the monitoring
//       engine exports them.
//
// Exit codes: 0 success, 1 usage error, 2 compile/run failure.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/flightrec.h"
#include "common/stats.h"
#include "common/trace.h"
#include "compiler/pipeline.h"
#include "core/cluster.h"
#include "framework/monitor.h"
#include "framework/timeline.h"
#include "kvstore/txn.h"
#include "kvstore/workload.h"
#include "loadgen/arrival.h"
#include "loadgen/generator.h"
#include "microc/disasm.h"
#include "microc/frontend.h"
#include "microc/interp.h"
#include "microc/serialize.h"
#include "microc/verify.h"
#include "net/trace.h"
#include "p4/text.h"
#include "workloads/lambdas.h"

using namespace lnic;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lnicctl compile <lambda.mc> [--p4 <match.p4>] "
               "[-o <out.lnfw>] [--no-opt]\n"
               "  lnicctl disasm <firmware.lnfw>\n"
               "  lnicctl run <firmware.lnfw> --wid N [--op X] [--key K] "
               "[--value V] [--cost npu|host|python]\n"
               "  lnicctl trace <web|kv|image> [--requests N] [--retransmit] "
               "[--backend nic|baremetal|container] [--out trace.json]\n"
               "  lnicctl metrics [--requests N] "
               "[--backend nic|baremetal|container] [--filter <prefix>]\n"
               "  lnicctl flightrec [--requests N]\n"
               "  lnicctl timeline [--requests N] "
               "[--tenant <name>] [--out timeline.json]\n"
               "  lnicctl loadgen poisson [--rate R] [--duration-ms D] "
               "[--functions N] [--zipf S]\n"
               "                  [--deadline-us U] [--backend ...]\n"
               "  lnicctl loadgen trace <file> [--deadline-us U] "
               "[--expect N] [--backend ...]\n"
               "  lnicctl loadgen synth [--out <file>] "
               "[--pattern constant|diurnal|burst]\n"
               "                  [--duration-ms D] [--rate R] [--peak P] "
               "[--functions N] [--zipf S] [--seed X]\n"
               "                  (poisson and synth offer at most 1000000 "
               "requests)\n"
               "  lnicctl kv [--mix A..F|tpcc] [--proto no_wait|wait_die] "
               "[--txns N] [--zipf S]\n"
               "             [--warehouses 1..1024] [--cache N] [--rate R] "
               "[--seed X] [--metrics]\n");
  return 1;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<std::vector<std::uint8_t>> read_binary(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  return std::vector<std::uint8_t>(text.value().begin(), text.value().end());
}

bool write_binary(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

/// A numeric flag that is malformed or out of range; main() answers it
/// with the usage message and exit code 1.
struct BadFlag {};

/// Strict numeric flag: the whole token must be a number in [lo, hi], as
/// in Gateway::decode_route (std::stoull would take "2x" as 2 and wrap
/// "-1" to 2^64-1). An absent flag yields `fallback`.
template <typename T>
T numeric_flag(const std::map<std::string, std::string>& flags,
               const char* key, T fallback, T lo, T hi) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const std::string& token = it->second;
  const char* last = token.data() + token.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (token.empty() || ec != std::errc() || ptr != last ||
      !(value >= lo && value <= hi)) {
    throw BadFlag{};
  }
  return value;
}

/// A finite, non-negative real.
double flag_double(const std::map<std::string, std::string>& flags,
                   const char* key, double fallback) {
  return numeric_flag(flags, key, fallback, 0.0,
                      std::numeric_limits<double>::max());
}

std::uint64_t flag_u64(
    const std::map<std::string, std::string>& flags, const char* key,
    std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  return numeric_flag<std::uint64_t>(flags, key, fallback, 0, max);
}

/// Caps that keep a flag from wrapping its conversion or exhausting
/// memory: one simulated day, at most 65,536 function aliases, at most a
/// million requests from the single-cluster commands, also as `loadgen`
/// offers them (rate times duration, at the peak rate for `synth`, whose
/// trace holds every arrival), and at most 1,024 TPC-C-lite warehouses
/// (populate() loads 4,096 stock rows for each).
constexpr std::uint64_t kMaxMillis = 86'400'000;
constexpr std::uint64_t kMaxMicros = 1000 * kMaxMillis;
constexpr std::uint64_t kMaxFunctions = 65'536;
constexpr int kMaxRequests = 1'000'000;
constexpr std::uint32_t kMaxWarehouses = 1'024;

/// True when `rps` over `duration_ms` offers more than kMaxRequests.
bool offers_too_many(double rps, std::uint64_t duration_ms) {
  return rps * static_cast<double>(duration_ms) / 1000.0 > kMaxRequests;
}

int flag_requests(const std::map<std::string, std::string>& flags,
                  int fallback) {
  return numeric_flag(flags, "--requests", fallback, 0, kMaxRequests);
}

// Simple flag map: --name value pairs after the positional arguments.
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 || arg == "-o") {
      const std::string key = arg == "-o" ? "--out" : arg;
      if (key == "--no-opt" || key == "--retransmit" || key == "--metrics") {
        // Not `flags[key] = "1"`: GCC 12 at -O3 flags that assignment
        // with a false-positive -Wrestrict.
        flags.insert_or_assign(key, "1");
      } else if (i + 1 < argc) {
        flags[key] = argv[++i];
      } else {
        flags[key] = "";
      }
    }
  }
  return flags;
}

int cmd_compile(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string source_path = argv[2];
  auto flags = parse_flags(argc, argv, 3);

  auto source = read_file(source_path);
  if (!source.ok()) {
    std::fprintf(stderr, "error: %s\n", source.error().message.c_str());
    return 2;
  }
  auto program = microc::compile_microc(source.value(), source_path);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.error().message.c_str());
    return 2;
  }
  std::fprintf(stderr, "compiled %zu function(s), %zu object(s)\n",
               program.value().functions.size(),
               program.value().objects.size());

  p4::MatchSpec spec;
  if (flags.count("--p4")) {
    auto p4_source = read_file(flags["--p4"]);
    if (!p4_source.ok()) {
      std::fprintf(stderr, "error: %s\n", p4_source.error().message.c_str());
      return 2;
    }
    auto parsed = p4::parse_p4(p4_source.value());
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.error().message.c_str());
      return 2;
    }
    spec = std::move(parsed).value();
  } else {
    // Default match spec: one table entry per function, workload IDs
    // assigned in declaration order starting at 1.
    WorkloadId wid = 1;
    for (const auto& fn : program.value().functions) {
      spec.tables.push_back(p4::make_lambda_table(fn.name, wid++));
    }
  }

  compiler::Options options;
  if (flags.count("--no-opt")) options = compiler::Options::none();
  auto compiled = compiler::compile(spec, std::move(program).value(), options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "error: %s\n", compiled.error().message.c_str());
    return 2;
  }
  for (const auto& stage : compiled.value().stages) {
    std::fprintf(stderr, "  %-24s %6llu words\n", stage.stage.c_str(),
                 static_cast<unsigned long long>(stage.code_words));
  }

  const std::string out_path =
      flags.count("--out") ? flags["--out"] : source_path + ".lnfw";
  const auto bytes = microc::serialize(compiled.value().program);
  if (!write_binary(out_path, bytes)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", out_path.c_str(),
               bytes.size());
  return 0;
}

int cmd_disasm(int argc, char** argv) {
  if (argc < 3) return usage();
  auto bytes = read_binary(argv[2]);
  if (!bytes.ok()) {
    std::fprintf(stderr, "error: %s\n", bytes.error().message.c_str());
    return 2;
  }
  auto program = microc::deserialize(bytes.value());
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.error().message.c_str());
    return 2;
  }
  std::fputs(microc::disassemble(program.value()).c_str(), stdout);
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  auto flags = parse_flags(argc, argv, 3);
  if (!flags.count("--wid")) return usage();

  auto bytes = read_binary(argv[2]);
  if (!bytes.ok()) {
    std::fprintf(stderr, "error: %s\n", bytes.error().message.c_str());
    return 2;
  }
  auto program = microc::deserialize(bytes.value());
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.error().message.c_str());
    return 2;
  }
  // deserialize() checks the format, not the code: an out-of-range
  // register, call target or dispatch function would run off the arrays.
  if (Status st = microc::verify(program.value()); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.error().message.c_str());
    return 2;
  }

  microc::CostModel cost = microc::CostModel::npu();
  const std::string cost_name =
      flags.count("--cost") ? flags["--cost"] : "npu";
  if (cost_name == "host") cost = microc::CostModel::host_native();
  else if (cost_name == "python") cost = microc::CostModel::host_python();
  else if (cost_name != "npu") return usage();

  microc::Invocation inv;
  auto num = [&](const char* key) { return flag_u64(flags, key, 0); };
  inv.headers.fields[microc::kHdrWorkloadId] = num("--wid");
  inv.headers.fields[microc::kHdrOp] = num("--op");
  inv.headers.fields[microc::kHdrKey] = num("--key");
  inv.headers.fields[microc::kHdrValue] = num("--value");
  inv.match_data = {1};

  microc::ObjectStore store(program.value());
  microc::Machine machine(program.value(), cost, &store);
  microc::Outcome out = machine.run(inv);
  while (out.state == microc::RunState::kYield) {
    std::fprintf(stderr, "[ext call %s key=%llu value=%llu -> replying 0]\n",
                 out.ext.kind == 0 ? "GET" : "SET",
                 static_cast<unsigned long long>(out.ext.key),
                 static_cast<unsigned long long>(out.ext.value));
    out = machine.resume(0);
  }
  if (out.state == microc::RunState::kTrap) {
    std::fprintf(stderr, "trap: %s\n", out.trap_message.c_str());
    return 2;
  }
  std::printf("return: %llu\n",
              static_cast<unsigned long long>(out.return_value));
  std::printf("cycles: %llu (%.3f us at %s)\n",
              static_cast<unsigned long long>(out.cycles),
              to_us(cost.cycles_to_duration(out.cycles)), cost_name.c_str());
  std::printf("response (%zu bytes):", out.response.size());
  for (std::size_t i = 0; i < out.response.size() && i < 64; ++i) {
    std::printf(" %02x", out.response[i]);
  }
  if (out.response.size() > 64) std::printf(" ...");
  std::printf("\n");
  return 0;
}

bool parse_backend(const std::map<std::string, std::string>& flags,
                   backends::BackendKind* kind) {
  const auto it = flags.find("--backend");
  if (it == flags.end() || it->second == "nic") {
    *kind = backends::BackendKind::kLambdaNic;
  } else if (it->second == "baremetal") {
    *kind = backends::BackendKind::kBareMetal;
  } else if (it->second == "container") {
    *kind = backends::BackendKind::kContainer;
  } else {
    return false;
  }
  return true;
}

/// The request one trace/metrics scenario issues per iteration.
struct Scenario {
  std::string function;
  std::vector<std::uint8_t> payload;
};

Result<Scenario> make_scenario(const std::string& name, int iteration) {
  if (name == "web") {
    return Scenario{"web_server",
                    workloads::encode_web_request(iteration & 3)};
  }
  if (name == "kv") {
    return Scenario{"kv_client_get",
                    workloads::encode_kv_request(7 + iteration)};
  }
  if (name == "image") {
    // 64x64 RGBA (16 KiB): a multi-fragment RDMA-write request.
    const std::vector<std::uint8_t> rgba(64 * 64 * 4, 0x5A);
    return Scenario{"image_transformer",
                    workloads::encode_image_request(64, 64, rgba)};
  }
  return make_error("unknown scenario '" + name + "' (web|kv|image)");
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string scenario_name = argv[2];
  auto flags = parse_flags(argc, argv, 3);
  const int requests = flag_requests(flags, 1);
  const std::string out_path =
      flags.count("--out") ? flags["--out"] : "trace.json";

  core::ClusterConfig config;
  config.workers = 2;
  if (!parse_backend(flags, &config.backend)) return usage();
  core::Cluster cluster(config);

  trace::TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);

  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  if (!deployed.ok()) {
    std::fprintf(stderr, "error: %s\n", deployed.error().message.c_str());
    return 2;
  }
  cluster.wait_until_ready();

  for (int i = 0; i < requests; ++i) {
    auto scenario = make_scenario(scenario_name, i);
    if (!scenario.ok()) {
      std::fprintf(stderr, "error: %s\n", scenario.error().message.c_str());
      return usage();
    }
    if (flags.count("--retransmit") && i == 0) {
      // Drop everything for 10 ms so the first attempt (and all its
      // fragments) vanish; the retransmission timer then resends into a
      // healthy fabric, yielding a trace with a timed-out rpc.attempt.
      cluster.network().set_faults(net::FaultConfig{.drop_probability = 1.0});
      cluster.sim().schedule(milliseconds(10), [&cluster] {
        cluster.network().set_faults(net::FaultConfig{});
      });
    }
    auto response = cluster.invoke_and_wait(scenario.value().function,
                                            scenario.value().payload);
    if (!response.ok()) {
      std::fprintf(stderr, "request %d failed: %s\n", i,
                   response.error().message.c_str());
      return 2;
    }
    std::printf("request %d: %s ok, latency %.1f us, retries %u\n", i,
                scenario.value().function.c_str(),
                to_us(response.value().latency), response.value().retries);
  }

  for (const auto trace_id : recorder.trace_ids()) {
    std::fputs(recorder.critical_path_summary(trace_id).c_str(), stdout);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  out << recorder.to_chrome_json();
  std::printf("wrote %s (%zu spans, %llu dropped)\n", out_path.c_str(),
              recorder.size(),
              static_cast<unsigned long long>(recorder.dropped()));
  return 0;
}

int cmd_metrics(int argc, char** argv) {
  auto flags = parse_flags(argc, argv, 2);
  const int requests = flag_requests(flags, 20);

  core::ClusterConfig config;
  config.workers = 2;
  if (!parse_backend(flags, &config.backend)) return usage();
  core::Cluster cluster(config);

  net::PacketTracer packet_tracer;
  cluster.network().set_tracer(&packet_tracer);

  framework::Monitor monitor(cluster.sim());
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    auto* backend = &cluster.worker(i);
    if (auto* nic = dynamic_cast<backends::LambdaNicBackend*>(backend)) {
      nic->nic().enable_profiler();
    }
    monitor.watch_backend("worker" + std::to_string(i), backend);
  }
  monitor.watch_packet_tracer(&packet_tracer);

  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  if (!deployed.ok()) {
    std::fprintf(stderr, "error: %s\n", deployed.error().message.c_str());
    return 2;
  }
  cluster.wait_until_ready();

  const char* mix[] = {"web_server", "kv_client_set", "kv_client_get"};
  for (int i = 0; i < requests; ++i) {
    const std::string fn = mix[i % 3];
    auto payload = fn == "web_server"
                       ? workloads::encode_web_request(i & 3)
                       : workloads::encode_kv_request(i, i * 3);
    auto response = cluster.invoke_and_wait(fn, payload);
    if (!response.ok()) {
      std::fprintf(stderr, "request %d (%s) failed: %s\n", i, fn.c_str(),
                   response.error().message.c_str());
      return 2;
    }
  }

  // --filter keeps only series whose *name* starts with the prefix
  // (labels and values ride along), e.g. --filter nic_tenant_.
  const std::string filter =
      flags.count("--filter") ? flags["--filter"] : "";
  const auto print_registry = [&](const char* title,
                                  const std::string& rendered) {
    std::printf("# %s\n", title);
    if (filter.empty()) {
      std::fputs(rendered.c_str(), stdout);
      return;
    }
    std::istringstream in(rendered);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(filter, 0) == 0) std::printf("%s\n", line.c_str());
    }
  };
  print_registry("gateway registry", cluster.gateway().metrics().render());
  print_registry("monitor registry", monitor.metrics().render());
  return 0;
}

int cmd_flightrec(int argc, char** argv) {
  auto flags = parse_flags(argc, argv, 2);
  const int requests = flag_requests(flags, 24);

  core::ClusterConfig config;
  config.workers = 2;
  // A deliberately tight limiter so the flood below sheds: 2 requests in
  // flight per function, 4 queued, 5 ms queue deadline, rest rejected.
  config.gateway.max_inflight_per_function = 2;
  config.gateway.max_queue_depth = 4;
  config.gateway.queue_deadline = milliseconds(5);
  core::Cluster cluster(config);

  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  if (!deployed.ok()) {
    std::fprintf(stderr, "error: %s\n", deployed.error().message.c_str());
    return 2;
  }
  cluster.wait_until_ready();

  int done = 0;
  int failed = 0;
  const auto count = [&](Result<proto::RpcResponse> response) {
    ++done;
    if (!response.ok()) ++failed;
  };

  // Phase 1: flood the limiter — queue-full and deadline sheds — then
  // let the admitted requests resolve in a healthy fabric.
  for (int i = 0; i < requests; ++i) {
    cluster.invoke("web_server", workloads::encode_web_request(i & 3), count);
  }
  cluster.sim().run_until(cluster.sim().now() + milliseconds(200));
  // Phase 2: one request into a black-holed fabric — retransmission
  // backoff until the RPC gives up, then a worker quarantine.
  cluster.network().set_faults(net::FaultConfig{.drop_probability = 1.0});
  cluster.invoke("web_server", workloads::encode_web_request(0), count);

  const SimTime deadline = cluster.sim().now() + seconds(600);
  while (done < requests + 1 && cluster.sim().now() < deadline) {
    cluster.sim().run_until(cluster.sim().now() + milliseconds(50));
  }

  std::printf("%d request(s) resolved: %d ok, %d failed (by design)\n\n",
              done, done - failed, failed);
  std::fputs(cluster.sim().flight_recorder().dump().c_str(), stdout);
  return 0;
}

int cmd_timeline(int argc, char** argv) {
  auto flags = parse_flags(argc, argv, 2);
  const int requests = flag_requests(flags, 12);
  const std::string out_path =
      flags.count("--out") ? flags["--out"] : "timeline.json";

  core::ClusterConfig config;
  config.workers = 2;
  if (!parse_backend(flags, &config.backend)) return usage();
  core::Cluster cluster(config);

  trace::TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);
  std::vector<std::pair<std::string, const nicsim::SmartNic*>> nics;
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    auto* nic = dynamic_cast<backends::LambdaNicBackend*>(&cluster.worker(i));
    if (nic != nullptr) {
      nic->nic().enable_profiler();
      nics.emplace_back("worker" + std::to_string(i), &nic->nic());
    }
  }

  const std::string tenant =
      flags.count("--tenant") ? flags["--tenant"] : "";
  auto deployed = cluster.deploy(workloads::make_standard_workloads(), tenant);
  if (!deployed.ok()) {
    std::fprintf(stderr, "error: %s\n", deployed.error().message.c_str());
    return 2;
  }
  cluster.wait_until_ready();

  const char* mix[] = {"web_server", "kv_client_set", "kv_client_get"};
  const std::string prefix = tenant.empty() ? "" : tenant + "/";
  for (int i = 0; i < requests; ++i) {
    const std::string fn = prefix + mix[i % 3];
    auto payload = fn == "web_server"
                       ? workloads::encode_web_request(i & 3)
                       : workloads::encode_kv_request(i, i * 3);
    auto response = cluster.invoke_and_wait(fn, payload);
    if (!response.ok()) {
      std::fprintf(stderr, "request %d (%s) failed: %s\n", i, fn.c_str(),
                   response.error().message.c_str());
      return 2;
    }
  }

  framework::TimelineInputs inputs;
  inputs.tracer = &recorder;
  inputs.nics = std::move(nics);
  const std::string json = framework::export_timeline(inputs);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  out << json;
  std::printf("wrote %s (%zu bytes: %zu request spans, %zu nic(s))\n",
              out_path.c_str(), json.size(), recorder.size(),
              inputs.nics.size());
  return 0;
}

// ---------------------------------------------------------------- loadgen

int cmd_loadgen_synth(const std::map<std::string, std::string>& flags) {
  loadgen::SynthSpec spec;
  const std::string pattern =
      flags.count("--pattern") ? flags.at("--pattern") : "burst";
  if (pattern == "constant") {
    spec.pattern = loadgen::SynthPattern::kConstant;
  } else if (pattern == "diurnal") {
    spec.pattern = loadgen::SynthPattern::kDiurnal;
  } else if (pattern == "burst") {
    spec.pattern = loadgen::SynthPattern::kBurst;
  } else {
    return usage();
  }
  const std::uint64_t duration_ms =
      flag_u64(flags, "--duration-ms", 1000, kMaxMillis);
  spec.duration = milliseconds(static_cast<std::int64_t>(duration_ms));
  spec.base_rps = flag_double(flags, "--rate", 1000.0);
  spec.peak_rps = flag_double(flags, "--peak", 4.0 * spec.base_rps);
  spec.functions = flag_u64(flags, "--functions", 8, kMaxFunctions);
  spec.zipf_s = flag_double(flags, "--zipf", 0.9);
  spec.seed = flag_u64(flags, "--seed", 1);
  if (offers_too_many(std::max(spec.base_rps, spec.peak_rps), duration_ms)) {
    return usage();
  }

  const auto events = loadgen::synthesize(spec);
  const std::string out_path =
      flags.count("--out") ? flags.at("--out") : "loadgen.trace";
  if (!loadgen::write_trace_file(out_path, events)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu events, %s, %.0f-%.0f rps, %zu functions)\n",
              out_path.c_str(), events.size(), pattern.c_str(),
              spec.base_rps, spec.peak_rps, spec.functions);
  return 0;
}

/// Shared driver for `loadgen poisson` and `loadgen trace`: a 2-worker
/// cluster with every requested function aliased onto the web-server
/// lambda (so requests really execute), open-loop load through the
/// gateway, SLO report + offered-load gauges on stdout.
int run_loadgen(const std::map<std::string, std::string>& flags,
                const std::vector<std::string>& functions,
                std::function<std::unique_ptr<loadgen::LoadGenerator>(
                    sim::Simulator&, loadgen::LoadGenConfig,
                    loadgen::Sink)>
                    make_generator,
                SimDuration run_for, std::uint64_t expect) {
  core::ClusterConfig config;
  config.workers = 2;
  if (!parse_backend(flags, &config.backend)) return usage();
  core::Cluster cluster(config);

  auto deployed = cluster.deploy(workloads::make_standard_workloads());
  if (!deployed.ok()) {
    std::fprintf(stderr, "error: %s\n", deployed.error().message.c_str());
    return 2;
  }
  cluster.wait_until_ready();

  const framework::Route* route = cluster.gateway().route("web_server");
  if (route == nullptr) {
    std::fprintf(stderr, "error: web_server route missing after deploy\n");
    return 2;
  }
  for (const std::string& fn : functions) {
    cluster.gateway().register_function(fn, workloads::kWebServerId,
                                        route->workers);
  }

  loadgen::LoadGenConfig lg;
  lg.slo.deadline = microseconds(static_cast<std::int64_t>(
      flag_u64(flags, "--deadline-us", 2000, kMaxMicros)));
  auto generator = make_generator(
      cluster.sim(), lg,
      loadgen::gateway_sink(cluster.gateway(),
                            [](const loadgen::Request& request) {
                              return workloads::encode_web_request(
                                  request.id & 3);
                            }));
  generator->set_metrics(&cluster.gateway().metrics());

  const SimTime start = cluster.sim().now();
  generator->start();
  cluster.sim().run_until(start + run_for);
  generator->stop();
  // Drain queued work. The cluster's monitor re-arms forever, so run in
  // bounded slices until the generator is idle rather than sim().run().
  const SimTime drain_deadline = cluster.sim().now() + seconds(30);
  while (generator->inflight() > 0 && cluster.sim().now() < drain_deadline) {
    cluster.sim().run_until(cluster.sim().now() + milliseconds(10));
  }

  const loadgen::SloReport report =
      generator->slo().report(cluster.sim().now() - start);
  std::fputs(report.to_string().c_str(), stdout);
  generator->slo().export_to(cluster.gateway().metrics(),
                             cluster.sim().now() - start);

  // Offered-load gauges, as they render next to the gateway_* series.
  std::istringstream rendered(cluster.gateway().metrics().render());
  std::string line;
  std::printf("\n# offered-load gauges (gateway registry)\n");
  while (std::getline(rendered, line)) {
    if (line.rfind("loadgen_inflight", 0) == 0 ||
        line.rfind("loadgen_offered_r", 0) == 0) {
      std::printf("%s\n", line.c_str());
    }
  }

  if (expect > 0 && generator->offered() != expect) {
    std::fprintf(stderr, "error: offered %llu requests, expected %llu\n",
                 static_cast<unsigned long long>(generator->offered()),
                 static_cast<unsigned long long>(expect));
    return 2;
  }
  return 0;
}

int cmd_loadgen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[2];
  auto flags = parse_flags(argc, argv, 3);

  if (mode == "synth") return cmd_loadgen_synth(flags);

  if (mode == "poisson") {
    const double rate = flag_double(flags, "--rate", 2000.0);
    const std::uint64_t duration_ms =
        flag_u64(flags, "--duration-ms", 500, kMaxMillis);
    const SimDuration duration =
        milliseconds(static_cast<std::int64_t>(duration_ms));
    const std::size_t n_functions =
        flag_u64(flags, "--functions", 8, kMaxFunctions);
    const double zipf = flag_double(flags, "--zipf", 0.9);
    // A silent stream or an empty alias set would offer nothing.
    if (!loadgen::offers_load(rate) || n_functions == 0 ||
        offers_too_many(rate, duration_ms)) {
      return usage();
    }
    std::vector<std::string> functions;
    for (std::size_t rank = 0; rank < n_functions; ++rank) {
      functions.push_back(loadgen::function_name(rank));
    }
    return run_loadgen(
        flags, functions,
        [&](sim::Simulator& sim, loadgen::LoadGenConfig lg,
            loadgen::Sink sink) {
          lg.arrivals = loadgen::ArrivalSpec::poisson(rate);
          lg.zipf_s = zipf;
          lg.duration = duration;
          return std::make_unique<loadgen::LoadGenerator>(
              sim, lg, loadgen::uniform_functions(n_functions),
              std::move(sink));
        },
        duration, /*expect=*/0);
  }

  if (mode == "trace") {
    if (argc < 4 || argv[3][0] == '-') return usage();
    auto events = loadgen::read_trace_file(argv[3]);
    if (!events.ok()) {
      std::fprintf(stderr, "error: %s\n", events.error().message.c_str());
      return 2;
    }
    flags = parse_flags(argc, argv, 4);
    std::vector<std::string> functions;
    for (const loadgen::TraceEvent& event : events.value()) {
      if (std::find(functions.begin(), functions.end(), event.function) ==
          functions.end()) {
        functions.push_back(event.function);
      }
    }
    const SimDuration span =
        events.value().empty() ? 0 : events.value().back().at;
    std::printf("replaying %zu events over %.1f ms (%zu functions)\n",
                events.value().size(), to_ms(span), functions.size());
    return run_loadgen(
        flags, functions,
        [&](sim::Simulator& sim, loadgen::LoadGenConfig lg,
            loadgen::Sink sink) {
          return std::make_unique<loadgen::LoadGenerator>(
              sim, lg, std::move(events).value(), std::move(sink));
        },
        span, flag_u64(flags, "--expect", 0));
  }

  return usage();
}

// --------------------------------------------------------------------- kv

/// One transactional-store cell, the lnicctl-sized twin of
/// bench/supp_kv_txn.cc: open-loop Poisson transactions from a client
/// into a TxnStore (store + host memory + RDMA QP).
int cmd_kv(int argc, char** argv) {
  auto flags = parse_flags(argc, argv, 2);
  const std::string mix_name = flags.count("--mix") ? flags["--mix"] : "A";
  const std::string proto_name =
      flags.count("--proto") ? flags["--proto"] : "no_wait";
  const std::uint64_t txns = flag_u64(flags, "--txns", 1000);
  const double rate = flag_double(flags, "--rate", 150000.0);
  const std::uint64_t seed = flag_u64(flags, "--seed", 1);
  if (!loadgen::offers_load(rate)) return usage();

  kvstore::TxnStoreConfig config;
  config.nic_cache_nodes =
      static_cast<std::size_t>(flag_u64(flags, "--cache", 256));
  if (proto_name == "no_wait") {
    config.protocol = kvstore::LockProtocol::kNoWait;
  } else if (proto_name == "wait_die") {
    config.protocol = kvstore::LockProtocol::kWaitDie;
  } else {
    return usage();
  }

  sim::Simulator sim;
  net::Network network(sim);
  kvstore::TxnStore store(sim, network, config);

  // Build the request factory: one YCSB mix or the TPC-C-lite new-order.
  std::function<kvstore::TxnRequest()> next;
  if (mix_name == "tpcc") {
    kvstore::TpccLiteConfig wconfig;
    // Zero warehouses would load no district or stock row to order from.
    wconfig.warehouses = numeric_flag<std::uint32_t>(flags, "--warehouses", 1,
                                                     1, kMaxWarehouses);
    wconfig.seed = seed;
    auto workload = std::make_shared<kvstore::TpccLiteWorkload>(wconfig);
    workload->populate(&store);
    next = [workload] { return workload->next_order(); };
  } else if (mix_name.size() == 1 && mix_name[0] >= 'A' &&
             mix_name[0] <= 'F') {
    kvstore::YcsbConfig wconfig;
    wconfig.mix = static_cast<kvstore::YcsbMix>(mix_name[0] - 'A');
    wconfig.zipf_s = flag_double(flags, "--zipf", 0.99);
    wconfig.seed = seed;
    auto workload = std::make_shared<kvstore::YcsbWorkload>(wconfig);
    workload->populate(&store);
    next = [workload] { return workload->next(); };
  } else {
    return usage();
  }

  std::map<RequestId, SimTime> sent_at;
  Sampler commit_latency;
  std::uint64_t committed = 0;
  std::uint64_t aborted_final = 0;
  const NodeId client = network.attach(
      [&](const net::Packet& p) {
        if (p.kind != net::PacketKind::kKvResponse) return;
        auto it = sent_at.find(p.lambda.request_id);
        if (it == sent_at.end()) return;
        const double latency_ns =
            static_cast<double>(sim.now() - it->second);
        sent_at.erase(it);
        if (!p.payload.empty() &&
            p.payload[0] ==
                static_cast<std::uint8_t>(kvstore::TxnStatus::kCommitted)) {
          commit_latency.add(latency_ns);
          ++committed;
        } else {
          ++aborted_final;
        }
      });

  auto arrivals =
      loadgen::make_arrivals(loadgen::ArrivalSpec::poisson(rate), seed);
  std::uint64_t issued = 0;
  std::function<void()> send_next = [&] {
    if (issued >= txns) return;
    net::Packet p;
    p.src = client;
    p.dst = store.node();
    p.kind = net::PacketKind::kKvRequest;
    p.lambda.workload_id = kvstore::TxnStore::kOpTxn;
    p.lambda.request_id = ++issued;
    p.payload = kvstore::TxnStore::encode_txn(next());
    sent_at[p.lambda.request_id] = sim.now();
    network.send(std::move(p));
    sim.schedule(arrivals->next_gap(), send_next);
  };
  sim.schedule(arrivals->next_gap(), send_next);
  sim.run();

  const auto& stats = store.stats();
  const std::uint64_t attempts = stats.commits + stats.aborts;
  std::printf("mix %s, proto %s, %llu txns at %.0f/s, cache %zu nodes\n",
              mix_name.c_str(), kvstore::to_string(store.protocol()),
              static_cast<unsigned long long>(txns), rate,
              config.nic_cache_nodes);
  std::printf("  committed %llu, final aborts %llu, aborted attempts %llu "
              "(rate %.3f), lock waits %llu\n",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(aborted_final),
              static_cast<unsigned long long>(stats.aborts),
              attempts == 0 ? 0.0
                            : static_cast<double>(stats.aborts) /
                                  static_cast<double>(attempts),
              static_cast<unsigned long long>(stats.lock_waits));
  if (!commit_latency.empty()) {
    std::printf("  commit latency p50 %.3f us, p99 %.3f us\n",
                commit_latency.median() / 1e3, commit_latency.p99() / 1e3);
  }
  const auto& cache = store.cache_stats();
  std::printf("  NIC cache hit ratio %.3f (%llu hits / %llu misses, "
              "%llu evictions, %llu invalidations), host reads %llu "
              "writes %llu\n",
              cache.hit_ratio(),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.invalidations),
              static_cast<unsigned long long>(store.host_stats().reads),
              static_cast<unsigned long long>(store.host_stats().writes));

  if (flags.count("--metrics")) {
    framework::Monitor monitor(sim);
    monitor.watch_kv("store0", &store);
    std::printf("\n# kv_* series (monitor registry)\n");
    std::istringstream rendered(monitor.metrics().render());
    std::string line;
    while (std::getline(rendered, line)) {
      if (line.rfind("kv_", 0) == 0) std::printf("%s\n", line.c_str());
    }
  }
  return committed > 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "compile") return cmd_compile(argc, argv);
    if (command == "disasm") return cmd_disasm(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "trace") return cmd_trace(argc, argv);
    if (command == "metrics") return cmd_metrics(argc, argv);
    if (command == "flightrec") return cmd_flightrec(argc, argv);
    if (command == "timeline") return cmd_timeline(argc, argv);
    if (command == "loadgen") return cmd_loadgen(argc, argv);
    if (command == "kv") return cmd_kv(argc, argv);
  } catch (const BadFlag&) {
    // Falls through to the usage message.
  }
  return usage();
}
