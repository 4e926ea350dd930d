// Allocation budgets of the steady-state request path: loadgen → gateway
// → RPC → fabric → NIC → lambda → reply, on a nic_kv_rw-shaped and a
// faas_mix-shaped cluster, and of deploying a cluster. This binary
// replaces the global operator new and delete to count every heap
// allocation and the bytes asked for, which is why it is a test binary
// of its own.
//
// Each shape runs through a LoadGenerator whose sink answers the way the
// cluster benchmark's does (perfbench/main.cc): it looks up a call built
// before counting starts and invokes the gateway with a reply closure of
// four references, a 56-byte call record and the loadgen completion.
// After a warm-up, every allocation the process makes while 10,000
// requests complete (1,000 of the image shape's) is counted, and the
// budget is 2 per request. The image shape's is 0.25: its function name
// is too long for the short-string buffer, so a name copied per offered
// request alone would cost 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "loadgen/generator.h"
#include "proto/invocation.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

/// Every form of operator new comes here and every form of delete goes
/// to std::free, so allocation and release always pair up (sanitizers
/// check that they do).
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(size)
             : std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace lnic {
namespace {

constexpr double kBudgetPerRequest = 2.0;
constexpr double kImageBudgetPerRequest = 0.25;

/// The cluster benchmark's call record (perfbench::Call).
struct Call {
  std::uint32_t fn = 0;
  BufferView payload;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// A body padded with zeros to `size`, as the benchmark pads its
/// requests to the size the load generator drew.
BufferView padded(std::vector<std::uint8_t> body, std::size_t size) {
  if (body.size() < size) body.resize(size, 0);
  return BufferView(std::move(body));
}

struct Shape {
  core::ClusterConfig config;
  workloads::WorkloadBundle bundle;
  loadgen::LoadGenConfig load;
  std::vector<std::string> aliases;  // gateway names, hottest first
  std::vector<std::string> targets;  // the deployed function each names
  std::vector<std::vector<Call>> calls;  // per alias, built up front
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cache;  // preload
  /// When set, the whole reply each call's key expects.
  std::vector<std::vector<std::uint8_t>> replies;
  std::uint64_t warm_requests = 3000;
  std::uint64_t counted_requests = 10000;

  /// Every reply leads with a word; a KV reply's is the value the call
  /// expects (the loaded value for a GET, the written one for a SET).
  bool check(const Call& call, const BufferView& response) const {
    if (!replies.empty()) return response == replies[call.key];
    return response.size() >= 8 &&
           (call.value == 0 || proto::payload_word(response, 0) == call.value);
  }
};

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t wanted = 0;  // requests the shape asked to count
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
};

Count count_allocations(Shape shape) {
  core::Cluster cluster(shape.config);
  EXPECT_TRUE(cluster.deploy(std::move(shape.bundle)).ok());
  cluster.wait_until_ready();
  framework::Gateway& gateway = cluster.gateway();
  for (std::size_t fn = 0; fn < shape.aliases.size(); ++fn) {
    const framework::Route* route = gateway.route(shape.targets[fn]);
    EXPECT_NE(route, nullptr);
    if (route == nullptr) return {};
    if (shape.aliases[fn] != shape.targets[fn]) {
      gateway.register_replicas(shape.aliases[fn], route->workload,
                                route->replicas);
    }
  }
  for (const auto& [key, value] : shape.cache) cluster.cache().put(key, value);

  std::vector<loadgen::FunctionProfile> profiles;
  for (const std::string& alias : shape.aliases) {
    profiles.push_back(loadgen::FunctionProfile{alias});
  }
  // The referenced locals the benchmark's reply closure captures.
  const Shape& workload = shape;
  std::uint64_t wrong = 0;
  const void* spans = nullptr;
  std::uint64_t slice = 0;
  std::vector<std::size_t> next(shape.aliases.size(), 0);
  loadgen::Sink sink = [&](const loadgen::Request& request,
                           loadgen::CompletionFn done) {
    const auto fn = static_cast<std::uint32_t>(
        std::find(workload.aliases.begin(), workload.aliases.end(),
                  request.function) -
        workload.aliases.begin());
    const std::vector<Call>& calls = workload.calls[fn];
    Call call = calls[next[fn]++ % calls.size()];
    const std::string& alias = workload.aliases[call.fn];
    BufferView payload = call.payload;
    auto reply = [&, call = std::move(call), done = std::move(done)](
                     Result<proto::RpcResponse> r) {
      bool ok = r.ok();
      if (ok && !workload.check(call, r.value().payload)) {
        ++wrong;
        ok = false;
      }
      if (spans == nullptr) return done(ok);
      ++slice;
      done(ok);
    };
    static_assert(
        framework::InvokeCallback::kStoresInline<decltype(reply)>,
        "the benchmark's reply closure must fit InvokeCallback in place");
    gateway.invoke(alias, std::move(payload), std::move(reply));
  };
  const std::uint64_t warm_requests = shape.warm_requests;
  const std::uint64_t total_requests = warm_requests + shape.counted_requests;
  shape.load.max_requests = total_requests;
  loadgen::LoadGenerator generator(cluster.sim(), shape.load, profiles,
                                   std::move(sink));
  const auto warm = [&generator, warm_requests] {
    return generator.completed() + generator.failed() >= warm_requests;
  };
  const auto counted = [&generator, total_requests] {
    return generator.completed() + generator.failed() >= total_requests;
  };
  const std::function<bool()> warm_fn = warm;
  const std::function<bool()> counted_fn = counted;
  generator.start();
  const SimTime deadline = cluster.sim().now() + seconds(60);
  cluster.sim().run_until(deadline, warm_fn);
  const std::uint64_t failed_before = generator.failed();
  const std::uint64_t done_before = generator.completed() + failed_before;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  cluster.sim().run_until(deadline, counted_fn);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  Count count;
  count.allocations = after - before;
  count.wanted = shape.counted_requests;
  count.requests = generator.completed() + generator.failed() - done_before;
  count.failed = generator.failed() - failed_before;
  count.wrong = wrong;
  return count;
}

void expect_within_budget(const char* name, const Count& count,
                          double budget = kBudgetPerRequest) {
  std::printf("%s: %llu allocations over %llu requests (%.3f per request)\n",
              name, static_cast<unsigned long long>(count.allocations),
              static_cast<unsigned long long>(count.requests),
              static_cast<double>(count.allocations) /
                  static_cast<double>(std::max<std::uint64_t>(count.requests,
                                                              1)));
  EXPECT_GE(count.requests, count.wanted);
  EXPECT_EQ(count.failed, 0u);
  EXPECT_EQ(count.wrong, 0u);
  EXPECT_LE(static_cast<double>(count.allocations),
            budget * static_cast<double>(count.requests));
}

TEST(AllocationBudget, NicKvStoreShape) {
  // One NIC running the NIC-resident KV store, 70/30 GET/SET at 100k rps
  // over 0.1% loss with a 200 us RPC timeout.
  Shape shape;
  shape.config.workers = 1;
  shape.config.seed = 1;
  shape.config.faults.drop_probability = 0.001;
  shape.config.gateway.rpc.retransmit_timeout = microseconds(200);
  shape.bundle = workloads::make_nic_kv_store(12);
  shape.load.arrivals = loadgen::ArrivalSpec::poisson(100000.0);
  shape.load.seed = 1;
  shape.aliases = {"kv_store"};
  shape.targets = {"kv_store"};
  Rng rng(5);
  std::vector<Call> calls;
  for (std::uint64_t i = 0; i < 512; ++i) {
    Call call;
    call.key = 0x1000 + rng.next_below(2048) * 7919;
    const std::size_t size = 32 + rng.next_below(993);
    if (rng.next_double() < 0.3) {
      call.value = rng.next_u64() | 1;  // a SET echoes its value
      call.payload = padded(
          workloads::encode_kv_store_request(1, call.key, call.value), size);
    } else {
      call.payload =
          padded(workloads::encode_kv_store_request(0, call.key), size);
    }
    calls.push_back(call);
  }
  shape.calls = {calls};
  expect_within_budget("nic_kv_rw shape", count_allocations(std::move(shape)));
}

TEST(AllocationBudget, FaasMixShape) {
  // Four NICs with the standard bundle: aliases of the web server and
  // both KV clients, Zipf 0.9 at 20k rps. GETs read and SETs overwrite
  // keys loaded into the cache beforehand.
  Shape shape;
  shape.config.workers = 4;
  shape.config.seed = 1;
  shape.bundle = workloads::make_standard_workloads();
  shape.load.arrivals = loadgen::ArrivalSpec::poisson(20000.0);
  shape.load.zipf_s = 0.9;
  shape.load.seed = 1;
  Rng rng(9);
  for (std::uint32_t rank = 0; rank < 16; ++rank) {
    const std::string target = rank % 2 == 0   ? "web_server"
                               : rank % 4 == 1 ? "kv_client_get"
                                               : "kv_client_set";
    shape.aliases.push_back(loadgen::function_name(rank));
    shape.targets.push_back(target);
    std::vector<Call> calls;
    for (std::uint64_t i = 0; i < 64; ++i) {
      Call call;
      call.fn = rank;
      const std::size_t size = 64 + rng.next_below(449);
      if (target == "web_server") {
        call.payload = padded(
            workloads::encode_web_request(rng.next_below(1 << 16)), size);
      } else if (target == "kv_client_get") {
        call.key = 0x10000 + rng.next_below(1024);
        call.value = call.key * 3 + 1;  // loaded below
        call.payload = padded(workloads::encode_kv_request(call.key), size);
      } else {
        call.key = 0x20000 + rng.next_below(1024);
        call.value = rng.next_u64() | 1;
        call.payload = padded(
            workloads::encode_kv_request(call.key, call.value), size);
      }
      calls.push_back(call);
    }
    shape.calls.push_back(std::move(calls));
  }
  for (std::uint64_t i = 0; i < 1024; ++i) {
    shape.cache.emplace_back(0x10000 + i, (0x10000 + i) * 3 + 1);
    shape.cache.emplace_back(0x20000 + i, 1);
  }
  expect_within_budget("faas_mix shape", count_allocations(std::move(shape)));
}

TEST(AllocationBudget, ImageShape) {
  // One NIC running the 128x128 image transformer, called through the
  // gateway at 1k rps: each 64 KiB request travels as RDMA fragments
  // plus an event, and each 16 KiB reply as response fragments, so the
  // NIC and the RPC client both reassemble a message per request.
  constexpr std::uint32_t kSide = 128;
  Shape shape;
  shape.config.workers = 1;
  shape.config.seed = 1;
  shape.bundle = workloads::make_standard_workloads({}, kSide, kSide);
  shape.load.arrivals = loadgen::ArrivalSpec::poisson(1000.0);
  shape.load.seed = 1;
  shape.aliases = {"image_transformer"};
  shape.targets = {"image_transformer"};
  shape.warm_requests = 500;
  shape.counted_requests = 1000;
  std::vector<Call> calls;
  for (std::uint32_t i = 0; i < 8; ++i) {
    const workloads::Image image = workloads::make_test_image(kSide, kSide, i);
    Call call;
    call.key = i;
    call.payload = BufferView(
        workloads::encode_image_request(kSide, kSide, image.rgba));
    calls.push_back(call);
    shape.replies.push_back(workloads::to_grayscale(image));
  }
  shape.calls = {calls};
  expect_within_budget("image shape", count_allocations(std::move(shape)),
                       kImageBudgetPerRequest);
}

TEST(AllocationBudget, FourNicDeploy) {
  // Everything Cluster::deploy asks of operator new: the etcd election it
  // runs first, the per-action footprint compiles, one compile of each
  // distinct slice, one decode of it, and each NIC's install. The NICs'
  // global objects live in mmap'd zero pages, which are not counted. A
  // compile per NIC again, or globals back on the heap, would break the
  // 4-NIC budget; the 1-NIC KV store shows what one NIC costs.
  struct Input {
    const char* name;
    std::uint32_t workers;
    workloads::WorkloadBundle bundle;
    std::uint64_t byte_budget;
  };
  Input inputs[] = {
      {"standard bundle on 4 NICs", 4, workloads::make_standard_workloads(),
       3ull << 20},
      {"KV store on 1 NIC", 1, workloads::make_nic_kv_store(12), 128ull << 10},
  };
  for (Input& input : inputs) {
    SCOPED_TRACE(input.name);
    core::ClusterConfig config;
    config.workers = input.workers;
    config.seed = 1;
    core::Cluster cluster(config);
    const std::uint64_t allocations =
        g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
    const bool deployed = cluster.deploy(std::move(input.bundle)).ok();
    const std::uint64_t counted =
        g_allocations.load(std::memory_order_relaxed) - allocations;
    const std::uint64_t counted_bytes =
        g_bytes.load(std::memory_order_relaxed) - bytes;
    std::printf("%s: deploy made %llu allocations of %.2f MiB\n", input.name,
                static_cast<unsigned long long>(counted),
                static_cast<double>(counted_bytes) / (1 << 20));
    EXPECT_TRUE(deployed);
    EXPECT_LE(counted_bytes, input.byte_budget);
  }
}

}  // namespace
}  // namespace lnic
