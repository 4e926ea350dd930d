// google-benchmark micro-benchmarks of the reproduction's own machinery:
// event-queue throughput, interpreter speed, compiler pipeline cost,
// load-generator overhead, Raft commit latency (wall-clock of the
// *simulator*, not simulated time). These guard against performance
// regressions in the harness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "compiler/pipeline.h"
#include "core/cluster.h"
#include "framework/metrics.h"
#include "loadgen/generator.h"
#include "microc/builder.h"
#include "microc/interp.h"
#include "net/network.h"
#include "net/packet.h"
#include "raft/raft.h"
#include "sim/simulator.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

using namespace lnic;

static void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_EventQueueScheduleDispatch);

// Wall time per interpreted IR instruction (instructions per second,
// inverted), printed in seconds with an SI prefix: "1.2ns".
static benchmark::Counter time_per_instr(std::uint64_t instructions) {
  return benchmark::Counter(
      static_cast<double>(instructions),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The web lambda's hot path is mix-round chains, which decode fuses into
// superinstructions. It always asks for page 0, so after the first
// request its 1 KiB kHash is a hit in the object store's memo: this
// measures the hit path (BM_InterpreterImageTransformer the miss path).
static void BM_InterpreterWebLambda(benchmark::State& state) {
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  const auto& program = compiled.value().program;
  microc::ObjectStore store(program);
  microc::Machine machine(program, microc::CostModel::npu(), &store);
  microc::Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = workloads::kWebServerId;
  inv.match_data = {1};
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto out = machine.run(inv);
    instructions += out.instructions;
    benchmark::DoNotOptimize(out.return_value);
  }
  state.counters["instrs/req"] =
      static_cast<double>(instructions) /
      static_cast<double>(state.iterations());
  state.counters["time/instr"] = time_per_instr(instructions);
  state.counters["hash_hits/req"] =
      static_cast<double>(store.hash_hits()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_InterpreterWebLambda);

// One kv_client_get request: dispatch, the KV client lambda (a 2,165
// register frame and its mix-round chains), one call of its query helper,
// a yield on the GET and a resume with the reply.
static void BM_InterpreterKvClient(benchmark::State& state) {
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  const auto& program = compiled.value().program;
  microc::ObjectStore store(program);
  microc::Machine machine(program, microc::CostModel::npu(), &store);
  microc::Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = workloads::kKvGetId;
  inv.match_data = {1};
  std::uint64_t instructions = 0;
  std::uint64_t key = 0;
  for (auto _ : state) {
    inv.headers.fields[microc::kHdrKey] = ++key;
    auto out = machine.run(inv);
    if (out.state != microc::RunState::kYield) {
      state.SkipWithError("kv_client_get did not yield on its GET");
      break;
    }
    out = machine.resume(key * 3);
    instructions += out.instructions;
    benchmark::DoNotOptimize(out.response.data());
  }
  state.counters["instrs/req"] =
      static_cast<double>(instructions) /
      static_cast<double>(state.iterations());
  state.counters["time/instr"] = time_per_instr(instructions);
}
BENCHMARK(BM_InterpreterKvClient);

// A frontend-compiled loop of loads, compares and branches that fusion
// never matches: the interpreter's unfused speed.
static void BM_InterpreterStreamAggregator(benchmark::State& state) {
  auto bundle = workloads::make_stream_aggregator();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  const auto& program = compiled.value().program;
  microc::ObjectStore store(program);
  microc::Machine machine(program, microc::CostModel::npu(), &store);
  microc::Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = workloads::kStreamId;
  inv.match_data = {1};
  std::uint64_t instructions = 0;
  std::uint64_t sample = 0;
  for (auto _ : state) {
    // Sixteen sensors, each with a full eight-sample window once warm.
    inv.headers.fields[microc::kHdrKey] = sample % 16;
    inv.headers.fields[microc::kHdrValue] = ++sample;
    auto out = machine.run(inv);
    instructions += out.instructions;
    benchmark::DoNotOptimize(out.return_value);
  }
  state.counters["instrs/req"] =
      static_cast<double>(instructions) /
      static_cast<double>(state.iterations());
  state.counters["time/instr"] = time_per_instr(instructions);
}
BENCHMARK(BM_InterpreterStreamAggregator);

// The image transformer on two distinct 128x128 images in turn. Each
// request rewrites gray_buf, so its 4 KiB kHash never finds the bytes it
// hashed last time: every one takes the memo's miss path.
static void BM_InterpreterImageTransformer(benchmark::State& state) {
  constexpr std::uint32_t kSide = 128;
  auto bundle = workloads::make_standard_workloads({}, kSide, kSide);
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  const auto& program = compiled.value().program;
  microc::ObjectStore store(program);
  microc::Machine machine(program, microc::CostModel::npu(), &store);
  microc::Invocation images[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    microc::Invocation& inv = images[i];
    inv.headers.fields[microc::kHdrWorkloadId] = workloads::kImageId;
    inv.headers.fields[microc::kHdrImageWidth] = kSide;
    inv.headers.fields[microc::kHdrImageHeight] = kSide;
    inv.body = workloads::encode_image_request(
        kSide, kSide, workloads::make_test_image(kSide, kSide, i + 1).rgba);
    inv.match_data = {1};
  }
  std::uint64_t instructions = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto out = machine.run(images[n++ % 2]);
    instructions += out.instructions;
    benchmark::DoNotOptimize(out.return_value);
  }
  state.counters["instrs/req"] =
      static_cast<double>(instructions) /
      static_cast<double>(state.iterations());
  state.counters["time/instr"] = time_per_instr(instructions);
  state.counters["hash_hits/req"] =
      static_cast<double>(store.hash_hits()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_InterpreterImageTransformer);

// One kGrayscale between two global objects, run through a Machine: 512
// pixels, the image lambda's tile (a 128x128 image in Scale::image_tiles
// = 32 tiles), and 16,384, the whole image. Unlike
// BM_InterpreterImageTransformer, no 4 KiB kHash is timed with it.
static void BM_Grayscale(benchmark::State& state) {
  constexpr std::uint32_t kSide = 128;
  const auto pixels = static_cast<std::uint64_t>(state.range(0));
  microc::ProgramBuilder pb("grayscale");
  const auto rgba = pb.object("rgba", kSide * kSide * 4,
                              microc::MemScope::kGlobal);
  const auto gray = pb.object("gray", kSide * kSide, microc::MemScope::kGlobal);
  auto fb = pb.function("grayscale", 0);
  auto zero = fb.const_u64(0);
  fb.grayscale(gray, zero, rgba, zero, fb.load_hdr(microc::kHdrKey));
  fb.ret_imm(0);
  const auto fn = fb.finish();
  const microc::Program program = pb.take();
  microc::ObjectStore store(program);
  const auto image = workloads::make_test_image(kSide, kSide, 1).rgba;
  std::copy(image.begin(), image.end(), store.data(rgba).begin());
  microc::Machine machine(program, microc::CostModel::npu(), &store);
  microc::Invocation inv;
  inv.headers.fields[microc::kHdrKey] = pixels;
  for (auto _ : state) {
    auto out = machine.run_function(fn, inv);
    benchmark::DoNotOptimize(out.return_value);
    benchmark::DoNotOptimize(store.data(gray).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pixels));
}
BENCHMARK(BM_Grayscale)->Arg(512)->Arg(16384);

// microc::fnv1a, kHash's value, called directly on random bytes: below
// the vector kernel's 512-byte block (64, 511), one block, the image
// lambda's 4 KiB digest, and 16 batches of 8 blocks.
static void BM_Fnv1a(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> bytes(len);
  Rng rng(1);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(microc::fnv1a(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Fnv1a)->Arg(64)->Arg(511)->Arg(512)->Arg(4096)->Arg(65536);

// Decoding the compiled standard bundle, which a deploy does once per
// cost model for all the NICs that run it: step layout, mix-round fusion,
// and the register liveness behind store masks and zero lists. Each
// iteration builds a Machine on the program with its decode cache
// emptied, as on a freshly compiled image.
static void BM_MicrocDecode(benchmark::State& state) {
  auto bundle = workloads::make_standard_workloads();
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  microc::Program& program = compiled.value().program;
  for (auto _ : state) {
    program.decoded.clear();
    microc::Machine machine(program, microc::CostModel::npu(), nullptr);
    benchmark::DoNotOptimize(&machine);
  }
}
BENCHMARK(BM_MicrocDecode);

static void BM_CompilerFullPipeline(benchmark::State& state) {
  for (auto _ : state) {
    auto bundle = workloads::make_standard_workloads();
    auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
    benchmark::DoNotOptimize(compiled.ok());
  }
}
BENCHMARK(BM_CompilerFullPipeline);

// The set-up perfbench's setup_s times, short of the workload's own
// install step: a Cluster built, a bundle made and deployed (footprint
// compiles, placement, one compile per distinct slice, each NIC's
// install) and the cluster run until ready (etcd election, firmware
// load). /4 is the standard bundle on 4 NICs (faas_mix), /1 the KV store
// on 1 NIC (nic_kv_rw). Tearing the cluster down is not timed.
static void BM_ClusterDeploy(benchmark::State& state) {
  core::ClusterConfig config;
  config.workers = static_cast<std::uint32_t>(state.range(0));
  config.seed = 1;
  for (auto _ : state) {
    auto cluster = std::make_unique<core::Cluster>(config);
    auto record = cluster->deploy(config.workers == 1
                                      ? workloads::make_nic_kv_store(12)
                                      : workloads::make_standard_workloads());
    if (!record.ok()) {
      state.SkipWithError(record.error().message.c_str());
      break;
    }
    cluster->wait_until_ready();
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ClusterDeploy)->Arg(4)->Arg(1)->Unit(benchmark::kMillisecond);

// The load generator's own cost per request, with no cluster behind it:
// Zipf arrivals over 32 profiles (faas_mix's shape), a sink that
// completes at once, and the offered-load gauges attached to a registry
// that is scraped once per run.
static void BM_LoadGeneratorPerRequest(benchmark::State& state) {
  std::uint64_t requests = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    framework::MetricsRegistry registry;
    loadgen::LoadGenConfig config;
    config.arrivals = loadgen::ArrivalSpec::poisson(20000.0);
    config.zipf_s = 0.9;
    config.max_requests = 10000;
    loadgen::LoadGenerator generator(
        sim, config, loadgen::uniform_functions(32),
        [](const loadgen::Request&, loadgen::CompletionFn done) {
          done(true);
        });
    generator.set_metrics(&registry);
    generator.start();
    sim.run();
    benchmark::DoNotOptimize(registry.render());
    requests += generator.completed();
  }
  state.counters["time/req"] = benchmark::Counter(
      static_cast<double>(requests),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LoadGeneratorPerRequest);

static void BM_NetworkPacketDelivery(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(sim);
    const NodeId a = network.attach(nullptr);
    const NodeId b = network.attach([](const net::Packet&) {});
    for (int i = 0; i < 1000; ++i) {
      net::Packet p;
      p.src = a;
      p.dst = b;
      p.payload = std::vector<std::uint8_t>(64);
      network.send(std::move(p));
    }
    sim.run();
  }
}
BENCHMARK(BM_NetworkPacketDelivery);

// net::fragment plus Reassembler::add on one payload per iteration, the
// per-fragment work of a multi-packet message at its sender and its
// receiver: 1,400 B (one packet, which the reassembler never stores),
// 16 KiB (a grayscale reply, 12 fragments) and 64 KiB + 8 B (an image
// request, 47 fragments). `time/frag` is wall time per fragment.
static void BM_FragmentReassemble(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const net::BufferView payload(std::vector<std::uint8_t>(size, 7));
  net::Reassembler reassembler;
  net::LambdaHeader header;
  header.workload_id = 1;
  std::uint64_t fragments = 0;
  for (auto _ : state) {
    ++header.request_id;
    std::optional<net::Reassembler::Message> message;
    net::fragment(1, 2, net::PacketKind::kRdmaWrite, header, payload,
                  [&](net::Packet&& p) {
                    ++fragments;
                    if (auto done = reassembler.add(p)) {
                      message = std::move(done);
                    }
                  });
    benchmark::DoNotOptimize(message->body.data());
  }
  state.counters["time/frag"] = benchmark::Counter(
      static_cast<double>(fragments),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FragmentReassemble)->Arg(1400)->Arg(16384)->Arg(65544);

static void BM_RaftElectAndCommit(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    raft::Cluster cluster(sim, 3);
    cluster.start();
    sim.run_until(seconds(2));
    auto* leader = cluster.leader();
    if (leader != nullptr) {
      for (int i = 0; i < 20; ++i) {
        (void)leader->propose(
            raft::Command{raft::Command::Op::kPut, "k", "v"});
      }
    }
    sim.run_until(seconds(3));
    benchmark::DoNotOptimize(cluster.leader());
  }
}
BENCHMARK(BM_RaftElectAndCommit);

BENCHMARK_MAIN();
