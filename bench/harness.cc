#include "bench/harness.h"

#include <cmath>

namespace lnic::bench {

std::vector<WorkloadCase> standard_cases(std::uint64_t web_requests,
                                         std::uint64_t kv_requests,
                                         std::uint64_t image_requests,
                                         std::uint32_t image_side) {
  const auto image =
      workloads::make_test_image(image_side, image_side, /*seed=*/42);
  std::vector<WorkloadCase> cases;
  cases.push_back(WorkloadCase{
      "Web Server", workloads::kWebServerId,
      [](std::uint64_t i) { return workloads::encode_web_request(i & 3); },
      web_requests});
  cases.push_back(WorkloadCase{
      "Key-Value Client", workloads::kKvGetId,
      [](std::uint64_t i) {
        return workloads::encode_kv_request(i % 1024);
      },
      kv_requests});
  cases.push_back(WorkloadCase{
      "Image Transformer", workloads::kImageId,
      [image](std::uint64_t) {
        return workloads::encode_image_request(image.width, image.height,
                                               image.rgba);
      },
      image_requests});
  return cases;
}

BackendRig::BackendRig(backends::BackendKind kind,
                       std::uint32_t worker_threads)
    : network_(sim_) {
  backend_ = backends::make_backend(kind, sim_, network_, worker_threads);
  cache_ = std::make_unique<kvstore::CacheServer>(sim_, network_);
  backend_->set_kv_server(cache_->node());
  proto::RpcConfig rpc;
  rpc.retransmit_timeout = seconds(60);  // lossless fabric: no retransmits
  client_ = std::make_unique<proto::RpcClient>(sim_, network_, rpc);
  // Warm the cache so GET-heavy runs measure hits, as the paper does
  // with pre-loaded (warm) lambdas.
  for (std::uint64_t k = 0; k < 1024; ++k) cache_->put(k, k * 31 + 7);
  auto deployed = backend_->deploy(workloads::make_standard_workloads());
  if (!deployed.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n", deployed.error().message.c_str());
  }
  // Pass firmware-load downtime.
  sim_.run_until(sim_.now() + seconds(20));
}

void BackendRig::redeploy(workloads::WorkloadBundle bundle) {
  auto deployed = backend_->deploy(std::move(bundle));
  if (!deployed.ok()) {
    std::fprintf(stderr, "redeploy failed: %s\n",
                 deployed.error().message.c_str());
  }
  sim_.run_until(sim_.now() + seconds(20));
}

Sampler BackendRig::run_closed_loop(const WorkloadCase& test,
                                    std::uint32_t concurrency) {
  Sampler latencies;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  const SimTime start = sim_.now();

  // Each sender issues its next request as soon as the previous returns
  // (the paper's closed-loop and parallel testing modes, §6.3.1). Every
  // request first clears the gateway's proxy stage — a single Go process
  // with NAT (§6.1.1) — before the latency clock starts at send time.
  std::function<void()> issue = [&]() {
    if (issued >= test.requests) return;
    const std::uint64_t i = issued++;
    const SimTime send_at =
        std::max(sim_.now(), gateway_free_at_) + kGatewayProxyTime;
    gateway_free_at_ = send_at;
    sim_.schedule_at(send_at, [this, &test, &latencies, &issue, &completed,
                               i]() {
      client_->call(backend_->node(), test.workload, test.payload(i),
                    [&](Result<proto::RpcResponse> result) {
                      ++completed;
                      if (result.ok()) {
                        latencies.add(
                            static_cast<double>(result.value().latency));
                      }
                      issue();
                    });
    });
  };
  for (std::uint32_t c = 0; c < concurrency && c < test.requests; ++c) {
    issue();
  }
  sim_.run();
  const SimDuration window = sim_.now() - start;
  last_throughput_ =
      window > 0 ? static_cast<double>(completed) / to_sec(window) : 0.0;
  return latencies;
}

Sampler BackendRig::run_round_robin(const std::vector<WorkloadId>& workloads,
                                    const PayloadFn& payload,
                                    std::uint32_t concurrency,
                                    std::uint64_t total_requests) {
  Sampler latencies;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  const SimTime start = sim_.now();
  // Unlike the isolation experiments, contention latency is measured
  // from the moment the request enters the gateway (client-observed),
  // so gateway queueing under 56-way load counts for every backend.
  std::function<void()> issue = [&]() {
    if (issued >= total_requests) return;
    const std::uint64_t i = issued++;
    const WorkloadId wid = workloads[i % workloads.size()];
    const SimTime entered = sim_.now();
    const SimTime send_at =
        std::max(sim_.now(), gateway_free_at_) + kGatewayProxyTime;
    gateway_free_at_ = send_at;
    sim_.schedule_at(send_at, [this, &payload, &latencies, &issue,
                               &completed, wid, i, entered]() {
      client_->call(backend_->node(), wid, payload(i),
                    [&, entered](Result<proto::RpcResponse> result) {
                      ++completed;
                      if (result.ok()) {
                        latencies.add(
                            static_cast<double>(sim_.now() - entered));
                      }
                      issue();
                    });
    });
  };
  for (std::uint32_t c = 0; c < concurrency && c < total_requests; ++c) {
    issue();
  }
  sim_.run();
  const SimDuration window = sim_.now() - start;
  last_throughput_ =
      window > 0 ? static_cast<double>(completed) / to_sec(window) : 0.0;
  return latencies;
}

void print_ecdf_ms(const std::string& label, const Sampler& latencies) {
  std::printf("  %-28s", label.c_str());
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    std::printf(" p%-3.0f=%9.4fms", p, latencies.percentile(p) / 1e6);
  }
  std::printf("\n");
}

void print_latency_row(const std::string& label, const Sampler& latencies) {
  std::printf("  %-28s mean=%10.4f ms   p50=%10.4f ms   p99=%10.4f ms  (n=%zu)\n",
              label.c_str(), latencies.mean() / 1e6,
              latencies.median() / 1e6, latencies.p99() / 1e6,
              latencies.count());
}

// ---------------------------------------------------------- BenchSummary

namespace {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

BenchSummary::BenchSummary(std::string bench, std::uint64_t seed)
    : bench_(std::move(bench)), seed_(seed) {}

BenchSummary::~BenchSummary() { write(); }

void BenchSummary::add(const std::string& metric, double value,
                       const std::string& unit) {
  entries_.push_back(Entry{metric, value, unit});
}

std::string BenchSummary::path() const { return "BENCH_" + bench_ + ".json"; }

void BenchSummary::write() {
  if (written_) return;
  written_ = true;
  std::FILE* f = std::fopen(path().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path().c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"metrics\": [\n",
               json_escape(bench_).c_str(),
               static_cast<unsigned long long>(seed_));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (std::isfinite(e.value)) {
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.9g, "
                   "\"unit\": \"%s\"}%s\n",
                   json_escape(e.metric).c_str(), e.value,
                   json_escape(e.unit).c_str(),
                   i + 1 < entries_.size() ? "," : "");
    } else {
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": null, "
                   "\"unit\": \"%s\"}%s\n",
                   json_escape(e.metric).c_str(), json_escape(e.unit).c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\n  wrote %s (%zu metrics)\n", path().c_str(), entries_.size());
}

}  // namespace lnic::bench
