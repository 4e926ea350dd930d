// Authoring a lambda the way the paper's users do (§4.1): Micro-C source
// (Listing 2) paired with a P4 match stage (Listing 3), compiled by the
// workload manager and deployed to a SmartNIC-backed cluster.
//
//   $ ./build/examples/custom_lambda
#include <cstdio>

#include "backends/backend.h"
#include "compiler/pipeline.h"
#include "kvstore/cache_server.h"
#include "microc/disasm.h"
#include "microc/frontend.h"
#include "net/network.h"
#include "nicsim/nic.h"
#include "p4/text.h"
#include "proto/rpc.h"
#include "sim/simulator.h"

using namespace lnic;

// A rate-plan calculator: op selects a plan, key carries usage units;
// the lambda prices them with fixed-point arithmetic (no FPU on NPUs,
// §3.1b) and keeps a running per-plan request counter in global memory.
constexpr const char* kLambdaSource = R"(
  global u8 counters[32] hot;

  int price_for(plan, units) {
    // Q16.16 rates: basic 1.25/unit, pro 0.75/unit, bulk 0.40/unit.
    var rate = 81920;                       // 1.25
    if (plan == 1) { rate = 49152; }        // 0.75
    if (plan == 2) { rate = 26214; }        // 0.40
    return fxmul(units << 16, rate) >> 16;  // whole currency units
  }

  int rate_plan() {
    var plan = hdr(op) % 3;
    var units = hdr(key);
    var n = load8(counters, plan * 8) + 1;
    store8(counters, plan * 8, n);
    var total = price_for(plan, units);
    resp_word(total);
    resp_word(n);
    return 0;
  }
)";

constexpr const char* kMatchSource = R"(
  parser {
    extract(workload_id);
    extract(op);
    extract(key);
  }
  table plans { key = { workload_id; } entry (5) -> rate_plan; }
  control ingress { apply(plans); }
)";

int main() {
  std::printf("Custom Micro-C lambda, end to end\n\n");

  auto program = microc::compile_microc(kLambdaSource, "rate-plan");
  if (!program.ok()) {
    std::fprintf(stderr, "micro-c: %s\n", program.error().message.c_str());
    return 1;
  }
  auto spec = p4::parse_p4(kMatchSource);
  if (!spec.ok()) {
    std::fprintf(stderr, "p4: %s\n", spec.error().message.c_str());
    return 1;
  }
  auto firmware = compiler::compile(spec.value(), std::move(program).value());
  if (!firmware.ok()) {
    std::fprintf(stderr, "compile: %s\n", firmware.error().message.c_str());
    return 1;
  }
  std::printf("firmware: %llu instruction words after optimization\n\n",
              static_cast<unsigned long long>(firmware.value().final_words()));
  std::printf("%s\n",
              microc::disassemble(
                  firmware.value().program.functions
                      [firmware.value().program.function_index("price_for")],
                  firmware.value().program)
                  .c_str());

  // Deploy to a SmartNIC and price a few usage reports.
  sim::Simulator sim;
  net::Network network(sim);
  nicsim::SmartNic nic(sim, network, backends::lambda_nic_config());
  auto image = std::make_shared<const compiler::CompileOutput>(
      std::move(firmware).value());
  if (!nic.deploy(std::move(image)).ok()) return 1;
  sim.run_until(seconds(16));

  proto::RpcClient client(sim, network);
  struct Case {
    std::uint64_t plan, units, expected;
  };
  const Case cases[] = {
      {0, 100, 125}, {1, 100, 75}, {2, 100, 39}, {0, 8, 10}, {2, 1000, 399}};
  // (0.40 is not exactly representable in Q16.16, so 0.4*100 truncates
  //  to 39 — the price of integer-only NPUs, §3.1b.)
  for (const Case& c : cases) {
    std::vector<std::uint8_t> body(24, 0);
    for (int i = 0; i < 8; ++i) {
      body[i] = static_cast<std::uint8_t>(c.plan >> (8 * i));
      body[8 + i] = static_cast<std::uint8_t>(c.units >> (8 * i));
    }
    std::uint64_t total = 0, count = 0;
    client.call(nic.node(), 5, body, [&](Result<proto::RpcResponse> r) {
      if (!r.ok()) return;
      for (int i = 0; i < 8; ++i) {
        total |= static_cast<std::uint64_t>(r.value().payload[i]) << (8 * i);
        count |= static_cast<std::uint64_t>(r.value().payload[8 + i]) << (8 * i);
      }
    });
    sim.run();
    std::printf("  plan %llu, %4llu units -> %4llu  (expected %4llu, "
                "plan served %llu times)  %s\n",
                static_cast<unsigned long long>(c.plan),
                static_cast<unsigned long long>(c.units),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(c.expected),
                static_cast<unsigned long long>(count),
                total == c.expected ? "ok" : "MISMATCH");
  }
  return 0;
}
