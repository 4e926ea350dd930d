// Tests for the SmartNIC model: dispatch, run-to-completion semantics,
// firmware-load downtime, RDMA reassembly under reordering, external KV
// calls, WFQ fairness, and resource accounting.
#include <gtest/gtest.h>

#include "common/trace.h"
#include "compiler/pipeline.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "nicsim/nic.h"
#include "proto/invocation.h"
#include "sim/simulator.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::nicsim {
namespace {

using net::Packet;
using net::PacketKind;
using workloads::encode_image_request;
using workloads::encode_kv_request;
using workloads::encode_web_request;

/// `bundle` compiled for the NIC: one image any number of NICs can run.
std::shared_ptr<const compiler::CompileOutput> firmware_of(
    workloads::WorkloadBundle bundle) {
  auto compiled = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  EXPECT_TRUE(compiled.ok());
  return std::make_shared<const compiler::CompileOutput>(
      std::move(compiled).value());
}

struct Rig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<SmartNic> nic;
  std::unique_ptr<kvstore::CacheServer> cache;
  NodeId client = kInvalidNode;
  std::vector<Packet> responses;
  workloads::WorkloadBundle bundle;
  /// With `with_twin`, a second NIC deployed from the very image `nic`
  /// runs, on the same fabric and cache.
  std::unique_ptr<SmartNic> twin;

  explicit Rig(NicConfig config = {}, bool with_twin = false) {
    nic = std::make_unique<SmartNic>(sim, network, config);
    cache = std::make_unique<kvstore::CacheServer>(sim, network);
    nic->set_kv_server(cache->node());
    client = network.attach([this](const Packet& p) {
      if (p.kind == PacketKind::kResponse) responses.push_back(p);
    });
    bundle = workloads::make_standard_workloads();
    const auto image = firmware_of(bundle);
    EXPECT_TRUE(nic->deploy(image).ok());
    if (with_twin) {
      twin = std::make_unique<SmartNic>(sim, network, config);
      twin->set_kv_server(cache->node());
      EXPECT_TRUE(twin->deploy(image).ok());
    }
    sim.run_until(seconds(20));  // firmware load window passes
  }

  void send(WorkloadId wid, net::BufferView body, RequestId request_id,
            PacketKind kind = PacketKind::kRequest) {
    send_to(*nic, wid, std::move(body), request_id, kind);
  }
  void send_to(const SmartNic& target, WorkloadId wid, net::BufferView body,
               RequestId request_id, PacketKind kind = PacketKind::kRequest) {
    net::LambdaHeader hdr;
    hdr.workload_id = wid;
    hdr.request_id = request_id;
    net::fragment(client, target.node(), kind, hdr, body,
                  [this](Packet f) { network.send(std::move(f)); });
  }
  /// The first word of the one response to `request_id` (0 if none).
  std::uint64_t reply_word(RequestId request_id) const {
    std::uint64_t word = 0;
    int seen = 0;
    for (const Packet& p : responses) {
      if (p.lambda.request_id != request_id) continue;
      word = proto::payload_word(p.payload, 0);
      ++seen;
    }
    EXPECT_EQ(seen, 1) << "responses to request " << request_id;
    return word;
  }
};

TEST(SmartNic, ServesWebRequest) {
  Rig rig;
  rig.send(workloads::kWebServerId, encode_web_request(1), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  const auto& body = rig.responses[0].payload;
  ASSERT_EQ(body.size(), 8u + workloads::kWebPageBytes);
  const std::string page(body.begin() + 8, body.end());
  EXPECT_EQ(page, workloads::expected_web_page(rig.bundle, 1));
  EXPECT_EQ(rig.nic->stats().requests_completed, 1u);
}

TEST(SmartNic, TeardownFreesRequestsInService) {
  // A request in service is held by the NIC's flight pool while the
  // pending event that ends its stage (the parse stage under
  // pipeline_stages, the compute burst before the reply under run to
  // completion) is queued. Destroying the rig then must free the
  // request and its body.
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipeline_stages" : "run to completion");
    NicConfig config;
    config.pipeline_stages = pipelined;
    auto rig = std::make_unique<Rig>(config);
    const net::BufferView body(encode_web_request(1));
    rig->send(workloads::kWebServerId, body, 1);
    const std::uint64_t delivered = rig->network.packets_delivered();
    while (rig->network.packets_delivered() == delivered && rig->sim.step()) {
    }
    // Delivered, not yet answered, and held by the NIC besides this test.
    ASSERT_EQ(rig->nic->busy_threads(), pipelined ? 0u : 1u);
    ASSERT_EQ(rig->nic->stats().requests_completed, 0u);
    ASSERT_EQ(body.buffer().use_count(), 2);
    rig.reset();
    EXPECT_EQ(body.buffer().use_count(), 1);
  }
}

TEST(SmartNic, SubMillisecondWebLatency) {
  Rig rig;
  const SimTime start = rig.sim.now();
  rig.send(workloads::kWebServerId, encode_web_request(0), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  // The architectural claim: on-NIC execution completes in tens of
  // microseconds, no OS stack involved.
  EXPECT_LT(rig.sim.now() - start, milliseconds(1));
}

TEST(SmartNic, KvLambdaRoundTripsThroughCache) {
  Rig rig;
  rig.cache->put(5, 5555);
  rig.send(workloads::kKvGetId, encode_kv_request(5), 2);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(rig.responses[0].payload[i]) << (8 * i);
  }
  EXPECT_EQ(value, 5555u);
  EXPECT_EQ(rig.cache->stats().hits, 1u);
}

TEST(SmartNic, LostKvRepliesTimeOutAndFreeTheThread) {
  // The KV server never answers: each call resends kKvCallMaxResends
  // times, then the request ends as a trap and its thread is free.
  Rig rig;
  const NodeId silent = rig.network.attach([](const Packet&) {});
  rig.nic->set_kv_server(silent);
  for (RequestId id = 1; id <= 3; ++id) {
    rig.send(workloads::kKvGetId, encode_kv_request(5), id);
  }
  rig.sim.run();
  EXPECT_TRUE(rig.responses.empty());
  EXPECT_EQ(rig.nic->busy_threads(), 0u);
  EXPECT_EQ(rig.nic->stats().traps, 3u);
  EXPECT_EQ(rig.nic->stats().kv_timeouts, 3u);
  EXPECT_EQ(rig.nic->stats().kv_retransmits, 3 * proto::kKvCallMaxResends);
}

TEST(SmartNic, KvCallResendsAfterALostRequest) {
  // The first copy of the KV request is lost; the resend is answered
  // and the lambda completes.
  Rig rig;
  rig.cache->put(5, 5555);
  // A KV server in front of the cache that loses the first request.
  bool dropped = false;
  const NodeId lossy = rig.network.attach([](const Packet&) {});
  rig.network.set_handler(lossy, [&, lossy](const Packet& p) {
    if (p.kind != PacketKind::kKvRequest) return;
    if (!dropped) {
      dropped = true;
      return;
    }
    std::uint64_t value = 0;
    rig.cache->get(net::decode_kv_request(p.payload).key, value);
    Packet reply;
    reply.src = lossy;
    reply.dst = p.src;
    reply.kind = PacketKind::kKvResponse;
    reply.lambda = p.lambda;
    reply.payload = net::encode_kv_reply(value);
    rig.network.send(std::move(reply));
  });
  rig.nic->set_kv_server(lossy);
  rig.send(workloads::kKvGetId, encode_kv_request(5), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  EXPECT_EQ(proto::payload_word(rig.responses[0].payload, 0), 5555u);
  EXPECT_EQ(rig.nic->stats().kv_retransmits, 1u);
  EXPECT_EQ(rig.nic->stats().kv_timeouts, 0u);
  EXPECT_EQ(rig.nic->busy_threads(), 0u);
}

TEST(SmartNic, RecycledFlightStartsClean) {
  // A flight goes back to the pool when its request ends and the next
  // request reuses it. After a traced KV client that waited on the cache,
  // or whose KV call timed out and trapped, an untraced web request on
  // the recycled flight must open no span, touch none of the first
  // request's spans, and be charged its own cycles, not the remainder
  // after the first request's.
  for (const bool trapped : {false, true}) {
    SCOPED_TRACE(trapped ? "after a trap" : "after a KV wait");
    Rig rig;
    trace::TraceRecorder recorder;
    rig.sim.set_tracer(&recorder);
    rig.cache->put(5, 5555);
    if (trapped) rig.nic->set_kv_server(rig.network.attach([](const Packet&) {}));
    net::LambdaHeader hdr;
    hdr.workload_id = workloads::kKvGetId;
    hdr.request_id = 1;
    hdr.trace_id = recorder.new_trace();
    hdr.parent_span = recorder.start_span(hdr.trace_id, trace::kInvalidSpan,
                                          "client", rig.sim.now());
    net::fragment(rig.client, rig.nic->node(), PacketKind::kRequest, hdr,
                  encode_kv_request(5),
                  [&](Packet f) { rig.network.send(std::move(f)); });
    rig.sim.run();
    ASSERT_EQ(rig.responses.size(), trapped ? 0u : 1u);
    ASSERT_EQ(rig.nic->stats().traps, trapped ? 1u : 0u);
    const std::vector<trace::Span> first = recorder.spans();
    const double first_cycles = rig.nic->stats().service_cycles.samples().back();

    const SimTime sent = rig.sim.now();
    rig.send(workloads::kWebServerId, encode_web_request(1), 2);
    rig.sim.run();
    ASSERT_EQ(rig.responses.size(), trapped ? 1u : 2u);
    const net::BufferView& page = rig.responses.back().payload;
    ASSERT_EQ(page.size(), 8u + workloads::kWebPageBytes);
    EXPECT_EQ(std::string(page.begin() + 8, page.end()),
              workloads::expected_web_page(rig.bundle, 1));
    // No span was opened, ended again or annotated.
    ASSERT_EQ(recorder.spans().size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(recorder.spans()[i].end, first[i].end);
      EXPECT_EQ(recorder.spans()[i].trace, first[i].trace);
    }
    // The reply waited at least for all of its own cycles.
    const double cycles = rig.nic->stats().service_cycles.samples().back();
    EXPECT_NE(cycles, first_cycles);
    EXPECT_GE(rig.sim.now() - sent,
              microc::CostModel::npu().cycles_to_duration(
                  static_cast<std::uint64_t>(cycles)));
    EXPECT_EQ(rig.nic->busy_threads(), 0u);
  }
}

TEST(SmartNic, KvSetWritesThrough) {
  Rig rig;
  rig.send(workloads::kKvSetId, encode_kv_request(77, 890), 3);
  rig.sim.run();
  std::uint64_t v = 0;
  EXPECT_TRUE(rig.cache->get(77, v));
  EXPECT_EQ(v, 890u);
}

TEST(SmartNic, ImageArrivesViaRdmaAndTransforms) {
  Rig rig;
  const auto img = workloads::make_test_image(64, 64, 2);
  rig.send(workloads::kImageId,
           encode_image_request(img.width, img.height, img.rgba), 4,
           PacketKind::kRdmaWrite);
  rig.sim.run();
  // The grayscale response spans multiple fragments; reassemble.
  std::vector<std::uint8_t> gray;
  std::map<std::uint32_t, net::BufferView> parts;
  for (const auto& p : rig.responses) {
    parts[p.lambda.frag_index] = p.payload;
  }
  for (auto& [idx, bytes] : parts) {
    (void)idx;
    gray.insert(gray.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(gray, workloads::to_grayscale(img));
}

TEST(SmartNic, RdmaReassemblyToleratesReordering) {
  NicConfig config;
  Rig rig(config);
  rig.network.set_faults(net::FaultConfig{
      .reorder_probability = 0.7,
      .reorder_max_extra_delay = microseconds(300)});
  const auto img = workloads::make_test_image(64, 64, 9);
  rig.send(workloads::kImageId,
           encode_image_request(img.width, img.height, img.rgba), 5,
           PacketKind::kRdmaWrite);
  rig.sim.run();
  std::map<std::uint32_t, net::BufferView> parts;
  for (const auto& p : rig.responses) parts[p.lambda.frag_index] = p.payload;
  std::vector<std::uint8_t> gray;
  for (auto& [idx, bytes] : parts) {
    (void)idx;
    gray.insert(gray.end(), bytes.begin(), bytes.end());
  }
  EXPECT_EQ(gray, workloads::to_grayscale(img));
}

TEST(SmartNic, DropsRequestsDuringFirmwareLoad) {
  NicConfig config;  // hot swap off: 15 s load window
  sim::Simulator sim;
  net::Network network(sim);
  SmartNic nic(sim, network, config);
  const NodeId client = network.attach(nullptr);
  ASSERT_TRUE(
      nic.deploy(firmware_of(workloads::make_standard_workloads())).ok());
  EXPECT_TRUE(nic.down());
  Packet p;
  p.src = client;
  p.dst = nic.node();
  p.kind = PacketKind::kRequest;
  p.lambda.workload_id = workloads::kWebServerId;
  p.payload = encode_web_request(0);
  network.send(p);
  sim.run_until(seconds(1));
  EXPECT_EQ(nic.stats().requests_dropped_down, 1u);
  sim.run_until(seconds(16));
  EXPECT_FALSE(nic.down());
}

TEST(SmartNic, HotSwapAvoidsDowntime) {
  NicConfig config;
  config.allow_hot_swap = true;  // §7 future-work ablation
  sim::Simulator sim;
  net::Network network(sim);
  SmartNic nic(sim, network, config);
  ASSERT_TRUE(
      nic.deploy(firmware_of(workloads::make_standard_workloads())).ok());
  EXPECT_FALSE(nic.down());
}

TEST(SmartNic, HotSwapLetsParkedKvCallFinishOnItsFirmware) {
  // A KV GET is parked on its external call when different firmware is
  // hot-swapped in. The flight must finish on the code and globals it
  // started with, not continue at the same step of the new image. When a
  // twin was deployed from the same image, the swap moves only this NIC.
  for (const bool with_twin : {false, true}) {
    SCOPED_TRACE(with_twin ? "beside a twin" : "alone");
    NicConfig config;
    config.allow_hot_swap = true;
    Rig rig(config, with_twin);
    rig.cache->put(5, 5555);
    rig.send(workloads::kKvGetId, encode_kv_request(5), 1);
    while (rig.cache->stats().gets == 0 && rig.sim.step()) {
    }
    ASSERT_EQ(rig.cache->stats().gets, 1u);  // reply in flight, lambda parked
    ASSERT_TRUE(
        rig.nic->deploy(firmware_of(workloads::make_nic_kv_store(8))).ok());
    rig.sim.run();
    ASSERT_EQ(rig.responses.size(), 1u);
    EXPECT_EQ(rig.reply_word(1), 5555u);
    EXPECT_EQ(rig.nic->stats().requests_completed, 1u);
    EXPECT_EQ(rig.nic->stats().traps, 0u);

    // New requests run the new firmware.
    rig.send(workloads::kNicKvStoreId,
             workloads::encode_kv_store_request(1, 9, 99), 2);
    rig.sim.run();
    ASSERT_EQ(rig.responses.size(), 2u);
    EXPECT_EQ(rig.reply_word(2), 99u);
    if (!with_twin) continue;

    // The twin still serves the image both NICs were given: its KV
    // client reads the cache, and the KV store is not on it.
    rig.send_to(*rig.twin, workloads::kKvGetId, encode_kv_request(5), 3);
    rig.send_to(*rig.twin, workloads::kNicKvStoreId,
                workloads::encode_kv_store_request(0, 9), 4);
    rig.sim.run();
    ASSERT_EQ(rig.responses.size(), 3u);
    EXPECT_EQ(rig.reply_word(3), 5555u);
    EXPECT_EQ(rig.twin->stats().requests_completed, 1u);
    EXPECT_EQ(rig.twin->stats().requests_to_host, 1u);
  }
}

TEST(SmartNic, NicsSharingOneImageKeepTheirOwnGlobals) {
  // Two NICs deployed from one compiled KV store share its code, not its
  // table: a SET one of them serves is not read back by a GET on the
  // other, in either direction.
  NicConfig config;
  config.allow_hot_swap = true;
  Rig rig(config, /*with_twin=*/true);
  const auto image = firmware_of(workloads::make_nic_kv_store(8));
  ASSERT_TRUE(rig.nic->deploy(image).ok());
  ASSERT_TRUE(rig.twin->deploy(image).ok());
  const auto set = [](std::uint64_t value) {
    return workloads::encode_kv_store_request(1, 9, value);
  };
  const auto get = [] { return workloads::encode_kv_store_request(0, 9); };

  rig.send(workloads::kNicKvStoreId, set(99), 1);
  rig.sim.run();
  rig.send_to(*rig.twin, workloads::kNicKvStoreId, get(), 2);
  rig.send(workloads::kNicKvStoreId, get(), 3);
  rig.sim.run();
  EXPECT_EQ(rig.reply_word(1), 99u);
  EXPECT_EQ(rig.reply_word(2), 0u);  // a miss: the twin's table is empty
  EXPECT_EQ(rig.reply_word(3), 99u);

  rig.send_to(*rig.twin, workloads::kNicKvStoreId, set(77), 4);
  rig.sim.run();
  rig.send(workloads::kNicKvStoreId, get(), 5);
  rig.send_to(*rig.twin, workloads::kNicKvStoreId, get(), 6);
  rig.sim.run();
  EXPECT_EQ(rig.reply_word(5), 99u);
  EXPECT_EQ(rig.reply_word(6), 77u);
  EXPECT_EQ(rig.nic->memory_in_use(), rig.twin->memory_in_use());
}

TEST(SmartNic, RejectsOversizedFirmware) {
  NicConfig config;
  config.instr_store_words = 100;
  sim::Simulator sim;
  net::Network network(sim);
  SmartNic nic(sim, network, config);
  EXPECT_FALSE(
      nic.deploy(firmware_of(workloads::make_standard_workloads())).ok());
  EXPECT_FALSE(nic.deployed());
}

TEST(SmartNic, UnknownWorkloadGoesToHostPath) {
  Rig rig;
  rig.send(9999, encode_web_request(0), 6);
  rig.sim.run();
  EXPECT_TRUE(rig.responses.empty());
  EXPECT_EQ(rig.nic->stats().requests_to_host, 1u);
}

TEST(SmartNic, RunToCompletionNoInterleavingLoss) {
  // Flood more requests than threads; every one completes, none lost.
  Rig rig;
  const int n = 2000;  // > 432 lambda threads
  for (int i = 0; i < n; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(i & 3),
             static_cast<RequestId>(i + 10));
  }
  rig.sim.run();
  EXPECT_EQ(rig.responses.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(rig.nic->stats().requests_dropped_queue, 0u);
}

TEST(SmartNic, QueueOverflowDropsExcess) {
  NicConfig config;
  config.max_queue_depth = 4;
  config.islands = 1;
  config.cores_per_island = 3;
  config.reserved_cores = 2;  // 1 lambda core x 8 threads
  Rig rig(config);
  for (int i = 0; i < 100; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(0),
             static_cast<RequestId>(i + 1));
  }
  rig.sim.run();
  EXPECT_GT(rig.nic->stats().requests_dropped_queue, 0u);
  EXPECT_EQ(rig.responses.size() + rig.nic->stats().requests_dropped_queue,
            100u);
}

TEST(SmartNic, MemoryAccountingTracksFirmwareAndImages) {
  Rig rig;
  const Bytes base = rig.nic->memory_in_use();
  EXPECT_GT(base, 0u);  // firmware + globals
  EXPECT_EQ(rig.nic->firmware_bytes() > 0, true);
  // A large in-flight image raises the high-water mark.
  const auto img = workloads::make_test_image(512, 512, 1);
  rig.send(workloads::kImageId,
           encode_image_request(img.width, img.height, img.rgba), 7,
           PacketKind::kRdmaWrite);
  rig.sim.run();
  EXPECT_GE(rig.nic->stats().peak_inflight_bytes, img.byte_size());
  // Released after completion.
  EXPECT_EQ(rig.nic->memory_in_use(), base);
}

TEST(SmartNic, WfqSharesServiceBetweenWorkloads) {
  // One lambda core, two workloads, skewed 3:1 weights: completions
  // should track the weights while both queues are backlogged.
  NicConfig config;
  config.islands = 1;
  config.cores_per_island = 3;
  config.reserved_cores = 2;
  config.threads_per_core = 2;
  config.dispatch = DispatchPolicy::kWfq;
  config.max_queue_depth = 100000;
  Rig rig(config);
  rig.nic->set_drr_weights({{workloads::kWebServerId, 3},
                            {workloads::kKvGetId, 1}});
  for (int i = 0; i < 400; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(0),
             static_cast<RequestId>(1000 + i));
    rig.send(workloads::kKvGetId, encode_kv_request(1),
             static_cast<RequestId>(5000 + i));
  }
  // Run long enough for a few hundred completions, then inspect mix.
  rig.sim.run_until(seconds(21));
  std::size_t web = 0, kv = 0;
  for (const auto& p : rig.responses) {
    if (p.lambda.workload_id == workloads::kWebServerId) ++web;
    if (p.lambda.workload_id == workloads::kKvGetId) ++kv;
  }
  ASSERT_GT(web + kv, 50u);
  if (kv > 0 && web + kv < 800) {  // both still backlogged at some point
    const double ratio = static_cast<double>(web) / static_cast<double>(kv);
    EXPECT_GT(ratio, 1.5);
  }
}

TEST(SmartNic, PipelinedModeServesCorrectly) {
  // §5 footnote 4 extension: dedicated parse/match cores in front of the
  // lambda pool; responses must be byte-identical to RTC mode.
  NicConfig config;
  config.pipeline_stages = true;
  config.parse_match_cores = 2;
  Rig rig(config);
  rig.send(workloads::kWebServerId, encode_web_request(1), 1);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 1u);
  const auto& body = rig.responses[0].payload;
  const std::string page(body.begin() + 8, body.end());
  EXPECT_EQ(page, workloads::expected_web_page(rig.bundle, 1));
}

TEST(SmartNic, PipelinedModeReducesLambdaThreads) {
  NicConfig rtc;
  NicConfig piped = rtc;
  piped.pipeline_stages = true;
  piped.parse_match_cores = 3;
  EXPECT_EQ(piped.lambda_threads() + 3 * piped.threads_per_core,
            rtc.lambda_threads());
  EXPECT_EQ(piped.parse_threads(), 3u * piped.threads_per_core);
}

TEST(SmartNic, PipelinedBurstCompletesEverything) {
  NicConfig config;
  config.pipeline_stages = true;
  config.parse_match_cores = 1;
  config.islands = 1;
  config.cores_per_island = 4;
  config.reserved_cores = 2;
  Rig rig(config);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    rig.send(workloads::kWebServerId, encode_web_request(i & 3),
             static_cast<RequestId>(i + 10));
  }
  rig.sim.run();
  EXPECT_EQ(rig.responses.size(), static_cast<std::size_t>(n));
}

TEST(SmartNic, ServiceCyclesRecorded) {
  Rig rig;
  rig.send(workloads::kWebServerId, encode_web_request(0), 1);
  rig.sim.run();
  ASSERT_EQ(rig.nic->stats().service_cycles.count(), 1u);
  EXPECT_GT(rig.nic->stats().service_cycles.mean(), 100.0);
}

// ----------------------------------------------- tenancy and DRR fixes

/// Rig over a web farm (identical lambdas, workload IDs 1..count): with
/// uniform service times, completion order equals DRR pop order, which
/// the scheduler tests below assert on directly.
struct FarmRig {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<SmartNic> nic;
  NodeId client = kInvalidNode;
  std::vector<Packet> responses;

  FarmRig(NicConfig config, std::uint32_t farm) {
    nic = std::make_unique<SmartNic>(sim, network, config);
    client = network.attach([this](const Packet& p) {
      if (p.kind == PacketKind::kResponse) responses.push_back(p);
    });
    EXPECT_TRUE(nic->deploy(firmware_of(workloads::make_web_farm(farm))).ok());
    sim.run_until(seconds(20));
  }

  void send(WorkloadId wid, RequestId request_id) {
    net::LambdaHeader hdr;
    hdr.workload_id = wid;
    hdr.request_id = request_id;
    net::fragment(client, nic->node(), PacketKind::kRequest, hdr,
                  encode_web_request(0),
                  [this](Packet f) { network.send(std::move(f)); });
  }
};

NicConfig one_thread_wfq() {
  NicConfig config;
  config.islands = 1;
  config.cores_per_island = 3;
  config.reserved_cores = 2;
  config.threads_per_core = 1;  // exactly one lambda thread: serial pops
  config.dispatch = DispatchPolicy::kWfq;
  config.max_queue_depth = 100000;
  return config;
}

TEST(SmartNic, DrrSharesServiceBetweenTenants) {
  // Three identical web lambdas assigned to tenants weighted 4:2:1.
  // Service times are uniform, so completions must track the weights
  // while every tenant stays backlogged.
  FarmRig rig(one_thread_wfq(), 3);
  rig.nic->set_tenant(1, 10);
  rig.nic->set_tenant(2, 20);
  rig.nic->set_tenant(3, 30);
  rig.nic->set_drr_weights({{10, 4}, {20, 2}, {30, 1}});
  for (int i = 0; i < 2000; ++i) {
    for (WorkloadId wid = 1; wid <= 3; ++wid) {
      rig.send(wid, static_cast<RequestId>(10000 * wid + i));
    }
  }
  rig.sim.run_until(rig.sim.now() + milliseconds(20));
  std::size_t done[4] = {0, 0, 0, 0};
  for (const auto& p : rig.responses) ++done[p.lambda.workload_id];
  ASSERT_GT(done[3], 10u);
  ASSERT_LT(done[1] + done[2] + done[3], 6000u);  // all still backlogged
  const double hi = static_cast<double>(done[1]) / static_cast<double>(done[2]);
  const double lo = static_cast<double>(done[2]) / static_cast<double>(done[3]);
  EXPECT_GT(hi, 1.7);
  EXPECT_LT(hi, 2.3);
  EXPECT_GT(lo, 1.7);
  EXPECT_LT(lo, 2.3);
  // Completions are accounted per scheduling class = tenant id.
  EXPECT_EQ(rig.nic->stats().completed_by_class.count(10), 1u);
  EXPECT_EQ(rig.nic->stats().completed_by_class.count(30), 1u);
  EXPECT_EQ(rig.nic->stats().completed_by_class.count(1), 0u);
}

TEST(SmartNic, DrrDeficitResetsWhenQueueDrains) {
  // Regression for the stale-deficit bug: a class that drained its queue
  // used to keep unspent credit and burst ahead when it returned.
  // Weights w1=3, w2=1, one thread. A lone w1 request drains w1's queue
  // with 2 credits left. Then 5 w1 + 1 w2 queue up while the thread is
  // busy. Fixed DRR pops W1 W1 W1 W2 W1 W1 (w2's top-up credit is spent
  // in round order); the stale deficit made it W1 x5 then W2.
  FarmRig rig(one_thread_wfq(), 2);
  rig.nic->set_drr_weights({{1, 3}, {2, 1}});
  rig.send(1, 1);  // prime: drains w1's queue mid-round
  for (RequestId id = 2; id <= 6; ++id) rig.send(1, id);
  rig.send(2, 7);
  rig.sim.run();
  ASSERT_EQ(rig.responses.size(), 7u);
  std::vector<WorkloadId> order;
  for (const auto& p : rig.responses) order.push_back(p.lambda.workload_id);
  EXPECT_EQ(order, (std::vector<WorkloadId>{1, 1, 1, 1, 2, 1, 1}));
}

TEST(SmartNic, UndeployTenantDropsQueuedAndCleansScheduler) {
  FarmRig rig(one_thread_wfq(), 2);
  rig.nic->set_tenant(1, 5);
  rig.nic->set_drr_weights({{5, 2}, {2, 1}});
  for (RequestId id = 1; id <= 500; ++id) rig.send(1, id);
  for (RequestId id = 501; id <= 510; ++id) rig.send(2, id);
  // Let a few complete, then evict tenant 5 with most of its backlog
  // still queued.
  rig.sim.run_until(rig.sim.now() + microseconds(500));
  rig.nic->undeploy_tenant(5);
  EXPECT_EQ(rig.nic->tenant_of(1), kDefaultTenant);
  EXPECT_GT(rig.nic->stats().requests_dropped_undeploy, 0u);
  // The evicted class's scheduler state is erased, not left as an empty
  // queue; tenant 2's class (workload 2 has no tenant) lives on.
  EXPECT_LE(rig.nic->drr_class_count(), 1u);
  rig.sim.run();
  // Tenant 2's traffic was untouched.
  std::size_t w2 = 0;
  for (const auto& p : rig.responses) w2 += p.lambda.workload_id == 2;
  EXPECT_EQ(w2, 10u);
  // Every workload-1 request either completed or was dropped by the
  // eviction (arrivals after it fall back to the workload-id class).
  const std::size_t served = rig.responses.size() - w2;
  EXPECT_EQ(served + rig.nic->stats().requests_dropped_undeploy, 500u);
}

TEST(SmartNic, TenantQuotaRejectsDeployAndPreservesOldFirmware) {
  // The new image has a shorter web server, so the first word of a web
  // reply tells which image served it. With a twin deployed from the
  // same image, the twin (no quota) takes the new image that the other
  // NIC rejects, and the rejecting NIC keeps its own.
  for (const bool with_twin : {false, true}) {
    SCOPED_TRACE(with_twin ? "beside a twin" : "alone");
    Rig rig({}, with_twin);  // standard workloads serving, no tenants yet
    rig.send(workloads::kWebServerId, encode_web_request(1), 1);
    rig.sim.run();
    const std::uint64_t old_reply = rig.reply_word(1);
    const std::uint64_t old_words = rig.nic->instr_words_used();

    // Assign the web lambda to tenant 9 with an impossible quota, then
    // hot-swap: admission must reject before any state changes.
    rig.nic->set_tenant(workloads::kWebServerId, 9);
    rig.nic->set_tenant_quota(9, TenantQuota{.instr_store_words = 1});
    const auto image = firmware_of(
        workloads::make_standard_workloads(workloads::Scale{
            .web_mix_rounds = 100}));
    auto swap = rig.nic->deploy(image);
    ASSERT_FALSE(swap.ok());
    EXPECT_NE(swap.error().message.find("tenant 9"), std::string::npos);
    EXPECT_EQ(rig.nic->instr_words_used(), old_words);
    if (with_twin) {
      ASSERT_TRUE(rig.twin->deploy(image).ok());
    }
    // The old firmware is still serving — no downtime from the rejection.
    rig.send(workloads::kWebServerId, encode_web_request(1), 2);
    rig.sim.run();
    EXPECT_EQ(rig.reply_word(2), old_reply);
    if (with_twin) {
      rig.sim.run_until(rig.sim.now() + kFirmwareLoadTime);
      rig.send_to(*rig.twin, workloads::kWebServerId, encode_web_request(1),
                  3);
      rig.sim.run();
      EXPECT_NE(rig.reply_word(3), old_reply);
      EXPECT_EQ(rig.twin->instr_words_used(), image->final_words());
    }

    // A generous quota admits the same image and records usage.
    rig.nic->set_tenant_quota(9, TenantQuota{.instr_store_words = 1 << 20,
                                             .emem_bytes = 1 << 30});
    EXPECT_TRUE(rig.nic->deploy(image).ok());
    EXPECT_EQ(rig.nic->instr_words_used(), image->final_words());
    const TenantUsage* usage = rig.nic->tenant_usage(9);
    ASSERT_NE(usage, nullptr);
    EXPECT_GT(usage->instr_words, 0u);
  }
}

}  // namespace
}  // namespace lnic::nicsim
