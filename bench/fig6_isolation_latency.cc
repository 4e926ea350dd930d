// Figure 6: ECDF of request latencies when executing a single workload
// instance in isolation — one warm lambda per backend, closed-loop
// single-threaded sender (§6.3.1).
//
// Paper's operating points: λ-NIC beats containers by ~880x and bare
// metal by ~30x in mean latency for the web server and key-value client,
// and by ~5x / ~3x for the data-intensive image transformer; 5-24x
// better p99 than bare metal.
#include <cstdio>

#include "bench/harness.h"

using namespace lnic;
using namespace lnic::bench;

int main() {
  print_header("Figure 6: latency ECDF, single lambda in isolation");
  BenchSummary summary("fig6_isolation_latency", /*seed=*/1);

  const auto cases = standard_cases(/*web=*/3000, /*kv=*/3000, /*image=*/120);
  const backends::BackendKind kinds[] = {
      backends::BackendKind::kLambdaNic, backends::BackendKind::kBareMetal,
      backends::BackendKind::kContainer};

  for (const auto& test : cases) {
    std::printf("\n-- %s --\n", test.name.c_str());
    Sampler per_backend[3];
    for (int k = 0; k < 3; ++k) {
      BackendRig rig(kinds[k]);
      per_backend[k] = rig.run_closed_loop(test, /*concurrency=*/1);
      print_latency_row(backends::to_string(kinds[k]), per_backend[k]);
      const std::string cell =
          test.name + "/" + backends::to_string(kinds[k]);
      summary.add(cell + "/mean", per_backend[k].mean() / 1e6, "ms");
      summary.add(cell + "/p99", per_backend[k].p99() / 1e6, "ms");
    }
    std::printf("  ECDF (ms):\n");
    for (int k = 0; k < 3; ++k) {
      print_ecdf_ms(backends::to_string(kinds[k]), per_backend[k]);
    }
    const double nic = per_backend[0].mean();
    std::printf("  mean improvement: vs bare-metal %.1fx, vs container %.1fx\n",
                per_backend[1].mean() / nic, per_backend[2].mean() / nic);
    std::printf("  p99  improvement: vs bare-metal %.1fx, vs container %.1fx\n",
                per_backend[1].p99() / per_backend[0].p99(),
                per_backend[2].p99() / per_backend[0].p99());
  }
  return 0;
}
