#include "perfbench/workloads.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/rng.h"
#include "loadgen/popularity.h"
#include "proto/invocation.h"
#include "workloads/image.h"

namespace lnic::perfbench {

namespace {

// Seed-stream separators: the load generator owns `seed` itself, the
// workloads draw request contents from their own streams.
constexpr std::uint64_t kBodyStream = 0x426F647953747265ull;
constexpr std::uint64_t kKeyStream = 0x4B65795374726561ull;
constexpr std::uint64_t kValueStream = 0x56616C7565537472ull;

/// Value a key is loaded with at set-up: a seeded hash, never 0 (0 is
/// what a miss returns).
std::uint64_t loaded_value(std::uint64_t seed, std::uint64_t key) {
  std::uint64_t x = (key + 1) * 0x9E3779B97F4A7C15ull ^ seed;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x | 1;
}

/// A request body padded with zeros to the size the load generator drew
/// (the lambdas read only the leading words).
BufferView padded(std::vector<std::uint8_t> body, Bytes size) {
  if (body.size() < size) body.resize(size, 0);
  return BufferView(std::move(body));
}

std::vector<NodeId> route_nodes(core::Cluster& cluster,
                                const std::string& function) {
  const framework::Route* route = cluster.gateway().route(function);
  return route != nullptr ? route->workers : std::vector<NodeId>{};
}

loadgen::LoadGenConfig poisson(std::uint64_t seed, double rps,
                               std::uint64_t requests, double zipf_s,
                               SimDuration deadline) {
  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::poisson(rps);
  lg.zipf_s = zipf_s;
  lg.max_requests = requests;
  lg.seed = seed;
  lg.slo.deadline = deadline;
  return lg;
}

// ---------------------------------------------------------------- faas_mix
//
// 32 aliases over four λ-NIC workers running the standard bundle: even
// ranks are the web server, ranks 1 mod 4 the KV GET client, ranks 3 mod
// 4 the KV SET client. GETs read keys loaded into the cache at set-up;
// SETs write a disjoint key range, so every GET has one right answer.
class FaasMix : public Workload {
 public:
  FaasMix(std::uint64_t seed, std::uint64_t requests)
      : seed_(seed),
        requests_(requests ? requests : 60000),
        body_rng_(seed ^ kBodyStream) {
    reference();  // build the check's ground truth outside the traffic
    for (std::uint32_t rank = 0; rank < kAliases; ++rank) {
      const WorkloadId wid = rank % 2 == 0   ? workloads::kWebServerId
                             : rank % 4 == 1 ? workloads::kKvGetId
                                             : workloads::kKvSetId;
      add_alias(loadgen::function_name(rank), wid);
    }
  }

  core::ClusterConfig cluster_config() const override {
    core::ClusterConfig config;
    config.workers = 4;
    config.seed = seed_;
    return config;
  }

  workloads::WorkloadBundle bundle() const override {
    return workloads::make_standard_workloads();
  }

  loadgen::LoadGenConfig load() const override {
    return poisson(seed_, 20000.0, requests_, 0.9, milliseconds(1));
  }

  loadgen::PayloadDist payload() const override {
    return loadgen::PayloadDist::uniform(64, 512);
  }

  Status install(core::Cluster& cluster, std::vector<Call>&) override {
    const std::map<WorkloadId, std::string> base = {
        {workloads::kWebServerId, "web_server"},
        {workloads::kKvGetId, "kv_client_get"},
        {workloads::kKvSetId, "kv_client_set"}};
    for (std::uint32_t fn = 0; fn < aliases().size(); ++fn) {
      auto nodes = route_nodes(cluster, base.at(alias_workload(fn)));
      if (nodes.empty()) return make_error("faas_mix: no route for alias");
      cluster.gateway().register_function(aliases()[fn], alias_workload(fn),
                                          std::move(nodes));
    }
    for (std::uint64_t i = 0; i < kGetKeys; ++i) {
      cluster.cache().put(kGetBase + i, loaded_value(seed_, kGetBase + i));
    }
    return Status::ok_status();
  }

  Call make_call(const loadgen::Request& request) override {
    Call call;
    call.fn = static_cast<std::uint32_t>(
        std::find(aliases().begin(), aliases().end(), request.function) -
        aliases().begin());
    switch (alias_workload(call.fn)) {
      case workloads::kWebServerId:
        call.key = body_rng_.next_below(1 << 16);
        call.payload = padded(workloads::encode_web_request(call.key),
                              request.payload_bytes);
        break;
      case workloads::kKvGetId:
        call.key = kGetBase + body_rng_.next_below(kGetKeys);
        call.value = loaded_value(seed_, call.key);
        call.payload = padded(workloads::encode_kv_request(call.key),
                              request.payload_bytes);
        break;
      default:
        call.key = kSetBase + body_rng_.next_below(kGetKeys);
        call.value = body_rng_.next_u64() | 1;
        call.payload = padded(
            workloads::encode_kv_request(call.key, call.value),
            request.payload_bytes);
        break;
    }
    return call;
  }

  bool check(const Call& call, const BufferView& response) const override {
    if (alias_workload(call.fn) == workloads::kWebServerId) {
      const std::string& page =
          workloads::expected_web_page(reference(), call.key);
      return response.size() == 8 + page.size() &&
             std::memcmp(response.data() + 8, page.data(), page.size()) == 0;
    }
    // Both KV clients answer with the cache's reply word first: the
    // loaded value for a GET, the written value for a SET.
    return response.size() >= 8 &&
           proto::payload_word(response, 0) == call.value;
  }

 private:
  static constexpr std::uint32_t kAliases = 32;
  static constexpr std::uint64_t kGetKeys = 1024;
  static constexpr std::uint64_t kGetBase = 0x10000;
  static constexpr std::uint64_t kSetBase = 0x20000;

  /// The bundle whose pages the web server must return.
  static const workloads::WorkloadBundle& reference() {
    static const workloads::WorkloadBundle bundle =
        workloads::make_standard_workloads();
    return bundle;
  }

  std::uint64_t seed_;
  std::uint64_t requests_;
  Rng body_rng_;
};

// --------------------------------------------------------------- nic_kv_rw
//
// The NIC-resident KV store on one worker, 70% GET / 30% SET over Zipf
// keys, with 0.1% packet loss and a 200 us RPC timeout. Every key is
// loaded at set-up; SETs only touch odd key ranks, so a GET of an even
// rank must return the loaded value and a GET of an odd rank the loaded
// value or one this run wrote.
class NicKvRw : public Workload {
 public:
  NicKvRw(std::uint64_t seed, std::uint64_t requests)
      : seed_(seed),
        requests_(requests ? requests : 200000),
        body_rng_(seed ^ kBodyStream),
        value_rng_(seed ^ kValueStream),
        get_keys_(kKeys, 0.99, seed ^ kKeyStream),
        set_keys_(kKeys / 2, 0.99, seed ^ kKeyStream ^ 1) {
    add_alias("kv_store", workloads::kNicKvStoreId);
  }

  core::ClusterConfig cluster_config() const override {
    core::ClusterConfig config;
    config.workers = 1;
    config.seed = seed_;
    config.faults.drop_probability = 0.001;
    config.gateway.rpc.retransmit_timeout = microseconds(200);
    return config;
  }

  workloads::WorkloadBundle bundle() const override {
    return workloads::make_nic_kv_store(12);
  }

  loadgen::LoadGenConfig load() const override {
    return poisson(seed_, 100000.0, requests_, 0.0, milliseconds(1));
  }

  loadgen::PayloadDist payload() const override {
    return loadgen::PayloadDist::uniform(32, 1024);
  }

  Status install(core::Cluster& cluster,
                 std::vector<Call>& warm_calls) override {
    if (route_nodes(cluster, aliases()[0]).empty()) {
      return make_error("nic_kv_rw: kv_store has no route");
    }
    for (std::uint64_t rank = 0; rank < kKeys; ++rank) {
      Call call;
      call.key = key_of(rank);
      call.value = loaded_value(seed_, call.key);
      call.payload = workloads::encode_kv_store_request(1, call.key,
                                                        call.value);
      warm_calls.push_back(call);
    }
    return send_and_wait(cluster, *this, warm_calls);
  }

  Call make_call(const loadgen::Request& request) override {
    Call call;
    if (body_rng_.next_double() < 0.3) {
      call.key = key_of(2 * set_keys_.sample() + 1);
      call.value = value_rng_.next_u64() | 1;
      written_[call.key].push_back(call.value);
      call.payload = padded(
          workloads::encode_kv_store_request(1, call.key, call.value),
          request.payload_bytes);
    } else {
      call.key = key_of(get_keys_.sample());
      call.payload = padded(workloads::encode_kv_store_request(0, call.key),
                            request.payload_bytes);
    }
    return call;
  }

  bool check(const Call& call, const BufferView& response) const override {
    if (response.size() < 8) return false;
    const std::uint64_t got = proto::payload_word(response, 0);
    if (call.value != 0) return got == call.value;  // SET echoes the value
    if (got == loaded_value(seed_, call.key)) return true;
    const auto it = written_.find(call.key);
    return it != written_.end() &&
           std::find(it->second.begin(), it->second.end(), got) !=
               it->second.end();
  }

 private:
  static constexpr std::uint64_t kKeys = 2048;  // half of the 4096 slots

  static std::uint64_t key_of(std::uint64_t rank) {
    return 0x1000 + rank * 7919;
  }

  std::uint64_t seed_;
  std::uint64_t requests_;
  Rng body_rng_;
  Rng value_rng_;
  loadgen::ZipfSelector get_keys_;
  loadgen::ZipfSelector set_keys_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> written_;
};

// -------------------------------------------------------------- image_rdma
//
// 128x128 RGBA grayscale conversions (64 KiB in, ~47 RDMA fragments)
// across four λ-NIC workers. Eight distinct images per seed, each encoded
// once into a shared buffer that every request views without copying.
class ImageRdma : public Workload {
 public:
  ImageRdma(std::uint64_t seed, std::uint64_t requests)
      : seed_(seed),
        requests_(requests ? requests : 16000),
        body_rng_(seed ^ kBodyStream) {
    add_alias("image_transformer", workloads::kImageId);
    for (std::uint32_t i = 0; i < kImages; ++i) {
      const workloads::Image image = workloads::make_test_image(
          kSide, kSide, static_cast<std::uint32_t>(seed * kImages + i));
      bodies_.push_back(workloads::encode_image_request(kSide, kSide,
                                                        image.rgba));
      gray_.push_back(workloads::to_grayscale(image));
    }
  }

  core::ClusterConfig cluster_config() const override {
    core::ClusterConfig config;
    config.workers = 4;
    config.seed = seed_;
    return config;
  }

  workloads::WorkloadBundle bundle() const override {
    return workloads::make_standard_workloads({}, kSide, kSide);
  }

  loadgen::LoadGenConfig load() const override {
    return poisson(seed_, 5000.0, requests_, 0.0, milliseconds(5));
  }

  Status install(core::Cluster& cluster, std::vector<Call>&) override {
    if (route_nodes(cluster, aliases()[0]).size() != 4) {
      return make_error("image_rdma: image_transformer is not on 4 workers");
    }
    return Status::ok_status();
  }

  Call make_call(const loadgen::Request&) override {
    Call call;
    call.key = body_rng_.next_below(kImages);
    call.payload = bodies_[call.key];
    return call;
  }

  bool check(const Call& call, const BufferView& response) const override {
    return response == gray_[call.key];
  }

 private:
  static constexpr std::uint32_t kSide = 128;
  static constexpr std::uint32_t kImages = 8;

  std::uint64_t seed_;
  std::uint64_t requests_;
  Rng body_rng_;
  std::vector<BufferView> bodies_;
  std::vector<std::vector<std::uint8_t>> gray_;
};

}  // namespace

std::vector<loadgen::FunctionProfile> Workload::profiles() const {
  std::vector<loadgen::FunctionProfile> profiles;
  for (const std::string& alias : aliases_) {
    profiles.push_back(loadgen::FunctionProfile{alias, payload()});
  }
  return profiles;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"faas_mix", "nic_kv_rw",
                                                 "image_rdma"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t requests) {
  if (name == "faas_mix") return std::make_unique<FaasMix>(seed, requests);
  if (name == "nic_kv_rw") return std::make_unique<NicKvRw>(seed, requests);
  if (name == "image_rdma") {
    return std::make_unique<ImageRdma>(seed, requests);
  }
  return nullptr;
}

Status send_and_wait(core::Cluster& cluster, const Workload& workload,
                     const std::vector<Call>& calls) {
  std::size_t answered = 0;
  std::size_t wrong = 0;
  for (const Call& call : calls) {
    cluster.gateway().invoke(
        workload.aliases()[call.fn], call.payload,
        [&, call](Result<proto::RpcResponse> r) {
          ++answered;
          if (!r.ok() || !workload.check(call, r.value().payload)) ++wrong;
        });
  }
  cluster.sharded().run_until(cluster.sim().now() + seconds(60),
                              [&] { return answered == calls.size(); });
  if (answered != calls.size() || wrong != 0) {
    return make_error("warm-up: " + std::to_string(calls.size() - answered) +
                      " unanswered, " + std::to_string(wrong) + " wrong");
  }
  return Status::ok_status();
}

}  // namespace lnic::perfbench
