// Tests for the observability stack: TraceRecorder span trees and
// critical-path decomposition, Chrome trace_event export, bucketed
// histograms, labeled metrics rendering, Monitor scrapes, NPU-grid
// profiling, and the end-to-end traced-retransmit integration scenario.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/flightrec.h"
#include "common/stats.h"
#include "common/trace.h"
#include "core/cluster.h"
#include "framework/metrics.h"
#include "framework/monitor.h"
#include "framework/timeline.h"
#include "net/network.h"
#include "net/trace.h"
#include "nicsim/profiler.h"
#include "proto/rpc.h"
#include "workloads/lambdas.h"

namespace lnic {
namespace {

using framework::Labels;
using framework::MetricsRegistry;
using trace::TraceRecorder;

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(Trace, SpanTreeStructureAndAnnotations) {
  TraceRecorder recorder;
  const auto t = recorder.new_trace();
  EXPECT_NE(t, trace::kInvalidTrace);

  const auto root = recorder.start_span(t, trace::kInvalidSpan, "request", 100);
  const auto child = recorder.start_span(t, root, "rpc.call", 200);
  recorder.annotate(child, "fn", "web_server");
  recorder.end_span(child, 700);
  recorder.end_span(root, 900);

  const auto spans = recorder.trace_spans(t);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, trace::kInvalidSpan);
  EXPECT_EQ(spans[1].name, "rpc.call");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].start, 200);
  EXPECT_EQ(spans[1].end, 700);
  EXPECT_FALSE(spans[1].open);
  ASSERT_EQ(spans[1].annotations.size(), 1u);
  EXPECT_EQ(spans[1].annotations[0].first, "fn");
  EXPECT_EQ(spans[1].annotations[0].second, "web_server");

  EXPECT_EQ(recorder.trace_ids(), std::vector<trace::TraceId>{t});
}

TEST(Trace, InvalidTraceAndUnknownSpanAreNoOps) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.start_span(trace::kInvalidTrace, 0, "x", 1),
            trace::kInvalidSpan);
  recorder.end_span(trace::kInvalidSpan, 5);       // must not crash
  recorder.end_span(12345, 5);                     // unknown id
  recorder.annotate(trace::kInvalidSpan, "k", "v");
  EXPECT_TRUE(recorder.empty());

  // An id from before clear() names nothing; a span opened after it
  // takes its own end and annotation.
  const auto t = recorder.new_trace();
  const auto before = recorder.start_span(t, 0, "before", 1);
  recorder.clear();
  const auto after = recorder.start_span(t, 0, "after", 2);
  ASSERT_NE(after, trace::kInvalidSpan);
  recorder.end_span(before, 3);
  recorder.annotate(before, "k", "before");
  recorder.end_span(after, 4);
  recorder.annotate(after, "k", "after");
  ASSERT_EQ(recorder.size(), 1u);
  const trace::Span& span = recorder.spans()[0];
  EXPECT_EQ(span.id, after);
  EXPECT_FALSE(span.open);
  EXPECT_EQ(span.end, 4);
  ASSERT_EQ(span.annotations.size(), 1u);
  EXPECT_EQ(span.annotations[0].second, "after");
}

TEST(Trace, SpanCapDropsAndCounts) {
  TraceRecorder recorder(/*max_spans=*/2);
  const auto t = recorder.new_trace();
  EXPECT_NE(recorder.start_span(t, 0, "a", 1), trace::kInvalidSpan);
  EXPECT_NE(recorder.start_span(t, 0, "b", 2), trace::kInvalidSpan);
  EXPECT_EQ(recorder.start_span(t, 0, "c", 3), trace::kInvalidSpan);
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 1u);

  // The dropped start took no id: once clear() makes room, ids carry on
  // from "b", and each still finds its own span.
  const trace::SpanId last = recorder.spans().back().id;
  recorder.clear();
  const auto d = recorder.start_span(t, 0, "d", 4);
  const auto e = recorder.start_span(t, 0, "e", 5);
  EXPECT_EQ(d, last + 1);
  EXPECT_EQ(e, d + 1);
  recorder.annotate(d, "k", "v");
  recorder.end_span(e, 6);
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.spans()[0].name, "d");
  EXPECT_EQ(recorder.spans()[0].annotations.size(), 1u);
  EXPECT_TRUE(recorder.spans()[0].open);
  EXPECT_EQ(recorder.spans()[1].name, "e");
  EXPECT_TRUE(recorder.spans()[1].annotations.empty());
  EXPECT_FALSE(recorder.spans()[1].open);
  EXPECT_EQ(recorder.spans()[1].end, 6);
}

TEST(Trace, ChromeJsonHasCompleteEventsWithSpanIds) {
  TraceRecorder recorder;
  const auto t = recorder.new_trace();
  const auto root = recorder.start_span(t, 0, "request", microseconds(10));
  const auto child = recorder.start_span(t, root, "nic.execute",
                                         microseconds(20));
  recorder.end_span(child, microseconds(30));
  recorder.end_span(root, microseconds(40));

  const std::string json = recorder.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"nic.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\""), std::string::npos);
}

TEST(Trace, SpanComponentMapping) {
  const auto component = [](std::string name, bool timeout = false) {
    trace::Span span;
    span.name = std::move(name);
    if (timeout) span.annotations.emplace_back("timeout", "true");
    return trace::span_component(span);
  };
  EXPECT_EQ(component("gateway.queue"), "queue");
  EXPECT_EQ(component("nic.queue"), "queue");
  EXPECT_EQ(component("nic.reassemble"), "queue");
  EXPECT_EQ(component("gateway.proxy"), "proxy");
  EXPECT_EQ(component("rpc.call"), "transport");
  EXPECT_EQ(component("rpc.attempt"), "transport");
  EXPECT_EQ(component("rpc.attempt", /*timeout=*/true), "retransmit");
  EXPECT_EQ(component("nic.execute"), "execute");
  EXPECT_EQ(component("host.kernel"), "execute");
  EXPECT_EQ(component("something.else"), "other");
}

TEST(Trace, CriticalPathComponentsSumExactlyToTotal) {
  // request [0,1000] with gateway.queue [0,100], rpc.call [100,900]
  // containing nic.execute [300,600]. The deepest-span sweep should
  // yield queue=100, transport=500 (rpc minus the nested execute),
  // execute=300, other=100 (the uncovered [900,1000] tail).
  TraceRecorder recorder;
  const auto t = recorder.new_trace();
  const auto root = recorder.start_span(t, 0, "request", 0);
  const auto queue = recorder.start_span(t, root, "gateway.queue", 0);
  recorder.end_span(queue, 100);
  const auto rpc = recorder.start_span(t, root, "rpc.call", 100);
  const auto exec = recorder.start_span(t, rpc, "nic.execute", 300);
  recorder.end_span(exec, 600);
  recorder.end_span(rpc, 900);
  recorder.end_span(root, 1000);

  const auto path = recorder.critical_path(t);
  EXPECT_EQ(path.total, 1000);
  EXPECT_EQ(path.component("queue"), 100);
  EXPECT_EQ(path.component("transport"), 500);
  EXPECT_EQ(path.component("execute"), 300);
  EXPECT_EQ(path.component("other"), 100);

  SimDuration sum = 0;
  for (const auto& [name, d] : path.components) sum += d;
  EXPECT_EQ(sum, path.total);

  const std::string summary = recorder.critical_path_summary(t);
  EXPECT_NE(summary.find("execute"), std::string::npos);
  EXPECT_NE(summary.find("transport"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketPlacementAndCumulativeCounts) {
  Histogram h({10.0, 100.0, 1000.0});
  h.observe(5.0);     // <= 10
  h.observe(10.0);    // <= 10 (inclusive upper bound)
  h.observe(50.0);    // <= 100
  h.observe(999.0);   // <= 1000
  h.observe(5000.0);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 6064.0);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);  // +Inf
  EXPECT_EQ(h.cumulative(0), 2u);
  EXPECT_EQ(h.cumulative(1), 3u);
  EXPECT_EQ(h.cumulative(2), 4u);
}

TEST(Histogram, PercentileStaysWithinBucketBounds) {
  Histogram h({10.0, 100.0, 1000.0});
  for (int i = 0; i < 90; ++i) h.observe(50.0);
  for (int i = 0; i < 10; ++i) h.observe(500.0);
  const double p50 = h.percentile(50.0);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  const double p99 = h.percentile(99.0);
  EXPECT_GT(p99, 100.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_EQ(Histogram{}.percentile(50.0), 0.0);  // empty
}

// ---------------------------------------------------------------------------
// MetricsRegistry: labels, sorting, exposition validity

TEST(Metrics, CounterNamePassesThrough) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("requests_total").name(), "requests_total");
  // The labeled overload stores (and names) the canonical series key.
  Counter& labeled = registry.counter("requests_total", {{"fn", "web"}});
  EXPECT_EQ(labeled.name(), "requests_total{fn=web}");
}

TEST(Metrics, LabeledAndBakedKeyAddressSameSeries) {
  MetricsRegistry registry;
  registry.counter("x_total", {{"b", "2"}, {"a", "1"}}).increment(3);
  // Canonical key sorts label keys; the baked-string form must hit the
  // same series.
  EXPECT_EQ(registry.counter("x_total{a=1,b=2}").value(), 3u);
  EXPECT_TRUE(registry.has("x_total{a=1,b=2}"));
}

TEST(Metrics, RenderIsNameSortedWithQuotedLabels) {
  MetricsRegistry registry;
  registry.gauge("zeta") = 1.0;
  registry.counter("alpha_total", {{"fn", "web"}}).increment(2);
  registry.sampler("mid_latency").add(5.0);
  const std::string text = registry.render();

  const auto alpha = text.find("alpha_total{fn=\"web\"} 2");
  const auto mid = text.find("mid_latency_count 1");
  const auto zeta = text.find("zeta 1");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  // Globally name-sorted across metric kinds.
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
}

TEST(Metrics, HistogramRendersConsistentBucketSumCount) {
  MetricsRegistry registry;
  auto& h = registry.histogram("lat_ns", {{"fn", "web"}}, {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  const std::string text = registry.render();
  EXPECT_NE(text.find("lat_ns_bucket{fn=\"web\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{fn=\"web\",le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{fn=\"web\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum{fn=\"web\"} 555"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count{fn=\"web\"} 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler percentile edge cases

TEST(Sampler, PercentileEdgeCases) {
  Sampler empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100.0), 0.0);

  Sampler single;
  single.add(42.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(single.percentile(100.0), 42.0);

  Sampler pair;
  pair.add(1.0);
  pair.add(2.0);
  EXPECT_DOUBLE_EQ(pair.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(pair.percentile(100.0), 2.0);
}

// ---------------------------------------------------------------------------
// Monitor scrapes

TEST(Monitor, RenderShowsBackendStateAsOfTheCall) {
  sim::Simulator sim;
  net::Network network(sim);
  auto backend = backends::make_backend(backends::BackendKind::kLambdaNic,
                                        sim, network);
  ASSERT_TRUE(backend->deploy(workloads::make_standard_workloads()).ok());
  sim.run_until(seconds(20));  // past the firmware load
  framework::Monitor monitor(sim);
  monitor.watch_backend("w", backend.get());
  std::string rendered = monitor.metrics().render();
  EXPECT_NE(rendered.find("backend_completed{node=\"w\"} 0"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("monitor_scrapes 1"), std::string::npos);

  // The backend serves a request; the next render shows it with no
  // scrape call in between.
  proto::RpcClient client(sim, network);
  bool served = false;
  client.call(backend->node(), workloads::kWebServerId,
              workloads::encode_web_request(0),
              [&](Result<proto::RpcResponse> r) { served = r.ok(); });
  sim.run();
  ASSERT_TRUE(served);
  rendered = monitor.metrics().render();
  EXPECT_NE(rendered.find("backend_completed{node=\"w\"} 1"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("monitor_scrapes 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// NPU-grid profiler

TEST(NpuProfiler, BusyAttributionPerThreadCoreAndLambda) {
  nicsim::NpuProfiler profiler(/*threads=*/4, /*threads_per_core=*/2);
  EXPECT_EQ(profiler.cores(), 2u);

  profiler.on_dispatch(0, /*workload=*/7, 100);
  profiler.on_dispatch(1, /*workload=*/8, 100);
  profiler.on_release(0, 400);  // thread 0 busy 300
  profiler.on_release(1, 200);  // thread 1 busy 100

  EXPECT_EQ(profiler.thread_busy_ns(0, 1000), 300);
  EXPECT_EQ(profiler.thread_busy_ns(1, 1000), 100);
  EXPECT_EQ(profiler.core_busy_ns(0, 1000), 400);  // threads 0+1
  EXPECT_EQ(profiler.core_busy_ns(1, 1000), 0);
  EXPECT_EQ(profiler.lambda_busy_ns(7), 300);
  EXPECT_EQ(profiler.lambda_dispatches(7), 1u);
  EXPECT_EQ(profiler.lambda_busy_ns(8), 100);
  // 400 busy ns over 4 threads * 1000 ns.
  EXPECT_DOUBLE_EQ(profiler.grid_utilization(1000), 0.1);

  // An open interval counts up to `now`.
  profiler.on_dispatch(2, 7, 500);
  EXPECT_EQ(profiler.thread_busy_ns(2, 800), 300);
}

TEST(NpuProfiler, RingsBoundTimelineAndDepthSamples) {
  nicsim::NpuProfiler profiler(/*threads=*/1, /*threads_per_core=*/1,
                               /*max_samples=*/4);
  for (int i = 0; i < 10; ++i) {
    const SimTime at = i * 100;
    profiler.on_dispatch(0, 1, at);
    profiler.on_release(0, at + 50);
    profiler.on_queue_depth(at, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(profiler.timeline(0).size(), 4u);
  EXPECT_EQ(profiler.timeline(0).back().end, 950);
  EXPECT_EQ(profiler.queue_depth_samples().size(), 4u);
  EXPECT_EQ(profiler.peak_queue_depth(), 9u);
  // Cumulative totals stay exact despite ring eviction.
  EXPECT_EQ(profiler.thread_busy_ns(0, 10000), 500);
  EXPECT_EQ(profiler.lambda_dispatches(1), 10u);
}

// ---------------------------------------------------------------------------
// Integration: traced request with a forced retransmission

TEST(Observability, TracedRetransmitYieldsConnectedSpanTree) {
  core::ClusterConfig config;
  config.workers = 1;
  config.gateway.rpc.retransmit_timeout = milliseconds(10);
  core::Cluster cluster(config);

  TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);

  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();

  // Swallow the first attempt; the retransmit timer resends at +10 ms
  // into a healed fabric.
  cluster.network().set_faults(net::FaultConfig{.drop_probability = 1.0});
  cluster.sim().schedule(milliseconds(5), [&cluster] {
    cluster.network().set_faults(net::FaultConfig{});
  });

  const std::vector<std::uint8_t> rgba(64 * 64 * 4, 0x5A);
  auto response = cluster.invoke_and_wait(
      "image_transformer", workloads::encode_image_request(64, 64, rgba));
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_GE(response.value().retries, 1u);

  const auto traces = recorder.trace_ids();
  ASSERT_EQ(traces.size(), 1u);
  const auto spans = recorder.trace_spans(traces.front());
  ASSERT_GE(spans.size(), 5u);

  // One connected tree: exactly one root, every parent resolves.
  std::set<trace::SpanId> ids;
  for (const auto& span : spans) ids.insert(span.id);
  std::size_t roots = 0;
  for (const auto& span : spans) {
    if (ids.count(span.parent) == 0) ++roots;
    EXPECT_FALSE(span.open) << span.name;
  }
  EXPECT_EQ(roots, 1u);

  std::set<std::string> kinds;
  for (const auto& span : spans) kinds.insert(span.name);
  EXPECT_GE(kinds.size(), 5u);
  EXPECT_TRUE(kinds.count("request"));
  EXPECT_TRUE(kinds.count("rpc.attempt"));
  EXPECT_TRUE(kinds.count("nic.reassemble"));
  EXPECT_TRUE(kinds.count("nic.execute"));

  // Critical-path components sum exactly to the end-to-end duration and
  // attribute the dead first attempt to "retransmit".
  const auto path = recorder.critical_path(traces.front());
  EXPECT_GT(path.component("retransmit"), 0);
  SimDuration sum = 0;
  for (const auto& [name, d] : path.components) sum += d;
  EXPECT_EQ(sum, path.total);
  // The root span covers the whole gateway round trip, so it can only
  // be as long as (or longer than) the rpc-layer latency.
  EXPECT_GE(path.total, response.value().latency);
}

TEST(Observability, OneAttachTracesGatewayRpcAndEveryWorker) {
  // One recorder attached to the simulation reaches the gateway, its RPC
  // client and both NICs: no component needs its own attach.
  core::ClusterConfig config;
  config.workers = 2;
  core::Cluster cluster(config);
  TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  for (int i = 0; i < 4; ++i) {
    auto response = cluster.invoke_and_wait(
        "web_server", workloads::encode_web_request(i & 3));
    ASSERT_TRUE(response.ok()) << response.error().message;
  }

  std::set<std::string> layers;
  std::set<std::string> nic_workers;  // rpc.call "dst" above each nic span
  const auto& spans = recorder.spans();
  const auto by_id = [&spans](trace::SpanId id) -> const trace::Span* {
    for (const auto& span : spans) {
      if (span.id == id) return &span;
    }
    return nullptr;
  };
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open) << span.name;
    layers.insert(span.name.substr(0, span.name.find('.')));
    if (span.name != "nic.execute") continue;
    const trace::Span* attempt = by_id(span.parent);
    ASSERT_NE(attempt, nullptr);
    ASSERT_EQ(attempt->name, "rpc.attempt");
    const trace::Span* call = by_id(attempt->parent);
    ASSERT_NE(call, nullptr);
    for (const auto& [key, value] : call->annotations) {
      if (key == "dst") nic_workers.insert(value);
    }
  }
  EXPECT_TRUE(layers.count("gateway"));
  EXPECT_TRUE(layers.count("rpc"));
  EXPECT_TRUE(layers.count("nic"));
  EXPECT_EQ(nic_workers,
            (std::set<std::string>{std::to_string(cluster.worker(0).node()),
                                   std::to_string(cluster.worker(1).node())}));
  EXPECT_EQ(recorder.trace_ids().size(), 4u);
}

TEST(Observability, DetachWithSpansOpenLeavesThemOpen) {
  // A request whose spans were opened before the recorder was detached
  // finishes without touching it: nothing is ended through a null
  // recorder, and the spans it had stay open.
  core::ClusterConfig config;
  config.workers = 1;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();
  TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);
  bool done = false;
  cluster.invoke("web_server", workloads::encode_web_request(1),
                 [&done](Result<proto::RpcResponse> r) {
                   EXPECT_TRUE(r.ok());
                   done = true;
                 });
  cluster.sim().run_until(cluster.sim().now() + microseconds(30));
  ASSERT_FALSE(done);
  const std::size_t opened = recorder.size();
  ASSERT_GT(opened, 0u);
  cluster.sim().set_tracer(nullptr);
  cluster.sim().run_until(cluster.sim().now() + seconds(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(recorder.size(), opened);
  EXPECT_TRUE(recorder.spans().front().open);  // the request's root
}

TEST(Trace, SampledNewTraceHandsOutConsecutiveIds) {
  // Rate 1/4 over 12 calls: calls 4, 8 and 12 get ids 1, 2 and 3, and
  // every other call gets none.
  TraceRecorder recorder(/*max_spans=*/16, /*sample_rate=*/0.25);
  std::vector<trace::TraceId> ids;
  for (int call = 1; call <= 12; ++call) {
    const trace::TraceId id = recorder.new_trace();
    if (call % 4 == 0) {
      ids.push_back(id);
    } else {
      EXPECT_EQ(id, trace::kInvalidTrace) << "call " << call;
    }
  }
  EXPECT_EQ(ids, (std::vector<trace::TraceId>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RingBoundsEvictionAndCounters) {
  // The ring itself is BoundedRing's (common_test); this checks what the
  // recorder adds on top: its counters, its events and its dump.
  flightrec::FlightRecorder ring(4);
  EXPECT_EQ(ring.events().capacity(), 4u);
  EXPECT_NE(ring.dump().find("empty"), std::string::npos);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(static_cast<SimTime>(i), flightrec::Kind::kOther, i, 2 * i,
                "event " + std::to_string(i));
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.events().evicted(), 6u);
  const auto& events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first, newest last.
  EXPECT_EQ(events.front().a, 6u);
  EXPECT_EQ(events.back().a, 9u);
  EXPECT_EQ(events.back().b, 18u);
  EXPECT_EQ(events.back().detail, "event 9");
  const std::string dump = ring.dump();
  EXPECT_NE(dump.find("10 event(s) recorded, last 4 retained"),
            std::string::npos);
  EXPECT_EQ(dump.find("event 5"), std::string::npos);
  EXPECT_NE(dump.find("event 6"), std::string::npos);

  // A zero capacity still keeps the latest anomaly.
  EXPECT_EQ(flightrec::FlightRecorder(0).events().capacity(), 1u);
}

TEST(FlightRecorder, GatewayShedSiteRecordsAnomalies) {
  core::ClusterConfig config;
  config.workers = 1;
  // Tight limiter: 1 in flight, 1 queued — a burst of 8 must shed.
  config.gateway.max_inflight_per_function = 1;
  config.gateway.max_queue_depth = 1;
  core::Cluster cluster(config);
  ASSERT_TRUE(cluster.deploy(workloads::make_standard_workloads()).ok());
  cluster.wait_until_ready();

  int done = 0;
  for (int i = 0; i < 8; ++i) {
    cluster.invoke("web_server", workloads::encode_web_request(i & 3),
                   [&done](Result<proto::RpcResponse>) { ++done; });
  }
  const SimTime deadline = cluster.sim().now() + seconds(10);
  while (done < 8 && cluster.sim().now() < deadline) {
    cluster.sim().run_until(cluster.sim().now() + milliseconds(10));
  }
  ASSERT_EQ(done, 8);

  // The cluster's own simulation holds the sheds.
  const flightrec::FlightRecorder& ring = cluster.sim().flight_recorder();
  bool saw_shed = false;
  for (const auto& event : ring.events()) {
    if (event.kind == flightrec::Kind::kGatewayShed) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
  EXPECT_NE(ring.dump().find("gateway-shed"), std::string::npos);
}

TEST(FlightRecorder, SimulationsOnTwoThreadsKeepTheirOwnSheds) {
  // Two clusters flood their own tight limiters side by side, one per
  // thread, with different bursts. Each simulation's recorder holds
  // exactly its own sheds: as many as its gateway counted, none of the
  // other's.
  struct Run {
    std::uint64_t shed_total = 0;
    std::uint64_t shed_events = 0;
    std::uint64_t recorded = 0;
  };
  const auto flood = [](int burst, Run* out) {
    core::ClusterConfig config;
    config.workers = 1;
    config.gateway.max_inflight_per_function = 1;
    config.gateway.max_queue_depth = 1;
    core::Cluster cluster(config);
    if (!cluster.deploy(workloads::make_standard_workloads()).ok()) return;
    cluster.wait_until_ready();
    int done = 0;
    for (int i = 0; i < burst; ++i) {
      cluster.invoke("web_server", workloads::encode_web_request(i & 3),
                     [&done](Result<proto::RpcResponse>) { ++done; });
    }
    const SimTime deadline = cluster.sim().now() + seconds(10);
    while (done < burst && cluster.sim().now() < deadline) {
      cluster.sim().run_until(cluster.sim().now() + milliseconds(10));
    }
    out->shed_total = cluster.gateway()
                          .metrics()
                          .counter("gateway_shed_total", {{"fn", "web_server"}})
                          .value();
    const flightrec::FlightRecorder& ring = cluster.sim().flight_recorder();
    for (const auto& event : ring.events()) {
      if (event.kind == flightrec::Kind::kGatewayShed) ++out->shed_events;
    }
    out->recorded = ring.recorded();
  };
  Run small, large;
  std::thread a(flood, 8, &small);
  std::thread b(flood, 24, &large);
  a.join();
  b.join();
  EXPECT_GT(small.shed_total, 0u);
  EXPECT_GT(large.shed_total, small.shed_total);
  EXPECT_EQ(small.shed_events, small.shed_total);
  EXPECT_EQ(large.shed_events, large.shed_total);
  EXPECT_EQ(small.recorded, small.shed_total);
  EXPECT_EQ(large.recorded, large.shed_total);
}

// ---------------------------------------------------------------------------
// Unified timeline

TEST(Timeline, MergedExportHasRequestAndNicTracks) {
  core::ClusterConfig config;
  config.workers = 2;
  core::Cluster cluster(config);

  TraceRecorder recorder;
  cluster.sim().set_tracer(&recorder);
  framework::TimelineInputs inputs;
  for (std::size_t i = 0; i < cluster.worker_count(); ++i) {
    auto* nic =
        dynamic_cast<backends::LambdaNicBackend*>(&cluster.worker(i));
    ASSERT_NE(nic, nullptr);
    nic->nic().enable_profiler();
    inputs.nics.emplace_back("worker" + std::to_string(i), &nic->nic());
  }

  // Tenant-namespaced deploy so nic.* spans carry tenant annotations.
  ASSERT_TRUE(
      cluster.deploy(workloads::make_standard_workloads(), "acme").ok());
  cluster.wait_until_ready();
  for (int i = 0; i < 6; ++i) {
    auto response = cluster.invoke_and_wait(
        "acme/web_server", workloads::encode_web_request(i & 3));
    ASSERT_TRUE(response.ok()) << response.error().message;
  }

  inputs.tracer = &recorder;
  const std::string json = framework::export_timeline(inputs);

  // Both sources in one JSON document.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("gateway.proxy"), std::string::npos);  // request spans
  EXPECT_NE(json.find("nic:worker0"), std::string::npos);    // NPU process
  EXPECT_NE(json.find("\"npu 0\""), std::string::npos);      // NPU track
  // Tenant ids ride both the trace spans and the profiler tracks.
  EXPECT_NE(json.find("\"tenant\""), std::string::npos);
}

TEST(Monitor, ExportsPacketTraceEvictions) {
  sim::Simulator sim;
  net::PacketTracer tracer;
  tracer.set_capacity(2);
  net::Packet packet;
  packet.src = 1;
  packet.dst = 2;
  for (int i = 0; i < 5; ++i) {
    tracer.record(packet, static_cast<SimTime>(i), /*dropped=*/false);
  }
  EXPECT_EQ(tracer.evicted(), 3u);

  framework::Monitor monitor(sim);
  monitor.watch_packet_tracer(&tracer);
  EXPECT_NE(monitor.metrics().render().find("packet_trace_evicted_total 3"),
            std::string::npos);
}

TEST(Monitor, ExportsKvStoreAndCacheServerMetrics) {
  sim::Simulator sim;
  net::Network network(sim);
  kvstore::TxnStoreConfig config;
  config.protocol = kvstore::LockProtocol::kWaitDie;
  kvstore::TxnStore store(sim, network, config);
  store.load(1, 10);
  kvstore::TxnRequest req;
  req.ops.push_back({kvstore::OpKind::kRead, 1, 0, 0});
  req.ops.push_back({kvstore::OpKind::kRmw, 1, 1, 0});
  store.execute(std::move(req), [](const kvstore::TxnResult&) {});
  sim.run();

  framework::Monitor monitor(sim);
  monitor.watch_kv("txn0", &store);
  const std::string rendered = monitor.metrics().render();
  EXPECT_NE(rendered.find("kv_ops_total{node=\"txn0\",op=\"txn\"} 1"),
            std::string::npos)
      << rendered;
  EXPECT_NE(
      rendered.find("kv_txn_commits_total{node=\"txn0\",proto=\"wait_die\"} 1"),
      std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("kv_txn_aborts_total{node=\"txn0\",proto=\"wait_die\"}"),
            std::string::npos);
  EXPECT_NE(rendered.find("kv_cache_hit_ratio{node=\"txn0\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace lnic
