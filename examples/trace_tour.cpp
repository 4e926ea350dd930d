// Tour of the tracing pipeline on a single worst-case request: a
// multi-fragment (RDMA-write) image invocation whose first transmission
// is swallowed by the fabric, forcing one retransmission. The exported
// span tree shows the full life of the request — gateway admission and
// proxying, the timed-out rpc.attempt, the retry, per-fragment
// reassembly on the NIC, dispatch queueing and NPU execution — and the
// critical-path analyzer decomposes end-to-end latency into components
// that sum exactly to the total.
//
//   $ ./build/examples/trace_tour [--out trace.json]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/trace.h"
#include "core/cluster.h"
#include "workloads/lambdas.h"

using namespace lnic;

int main(int argc, char** argv) {
  std::string out_path = "trace.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("one traced request: fragmentation + forced retransmit\n\n");

  core::ClusterConfig config;
  config.workers = 1;
  config.gateway.rpc.retransmit_timeout = milliseconds(10);
  core::Cluster cluster(config);

  trace::TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);

  if (!cluster.deploy(workloads::make_standard_workloads()).ok()) {
    std::fprintf(stderr, "deploy failed\n");
    return 1;
  }
  cluster.wait_until_ready();

  // Black-hole the fabric just long enough to kill the first attempt;
  // the 10 ms retransmission timer resends into a healthy network.
  cluster.network().set_faults(net::FaultConfig{.drop_probability = 1.0});
  cluster.sim().schedule(milliseconds(5), [&cluster] {
    cluster.network().set_faults(net::FaultConfig{});
  });

  // 64x64 RGBA (16 KiB): a dozen fragments at the 1400 B MTU.
  const std::vector<std::uint8_t> rgba(64 * 64 * 4, 0x5A);
  auto response = cluster.invoke_and_wait(
      "image_transformer", workloads::encode_image_request(64, 64, rgba));
  if (!response.ok()) {
    std::fprintf(stderr, "request failed: %s\n",
                 response.error().message.c_str());
    return 1;
  }
  std::printf("request ok: latency %.1f us, retries %u\n\n",
              to_us(response.value().latency), response.value().retries);

  const auto traces = recorder.trace_ids();
  if (traces.empty()) {
    std::fprintf(stderr, "no trace recorded\n");
    return 1;
  }
  const auto trace_id = traces.front();

  std::printf("span tree (%zu spans):\n", recorder.trace_spans(trace_id).size());
  for (const auto& span : recorder.trace_spans(trace_id)) {
    std::printf("  %-16s %9.1f us -> %9.1f us  (%s)\n", span.name.c_str(),
                to_us(span.start), to_us(span.end),
                trace::span_component(span).c_str());
  }

  const auto path = recorder.critical_path(trace_id);
  std::printf("\n%s", recorder.critical_path_summary(trace_id).c_str());

  SimDuration sum = 0;
  for (const auto& [name, duration] : path.components) sum += duration;
  const bool clean = response.value().retries >= 1 &&
                     path.component("retransmit") > 0 && sum == path.total;
  std::printf("\ncomponents sum to total: %s (%.1f us of %.1f us)\n",
              sum == path.total ? "yes" : "NO", to_us(sum),
              to_us(path.total));

  std::ofstream out(out_path);
  if (out) {
    out << recorder.to_chrome_json();
    std::printf("wrote %s (%zu spans)\n", out_path.c_str(), recorder.size());
  }
  if (!clean) std::printf("unexpected end state!\n");
  return clean ? 0 : 1;
}
