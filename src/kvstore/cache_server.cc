#include "kvstore/cache_server.h"

namespace lnic::kvstore {

using net::Packet;
using net::PacketKind;

namespace {
constexpr SimDuration kGetService = microseconds(4);  // memcached-scale op cost
constexpr SimDuration kSetService = microseconds(6);
}  // namespace

CacheServer::CacheServer(sim::Simulator& sim, net::Network& network,
                         CacheConfig config)
    : sim_(sim), network_(network), config_(config) {
  node_ = network_.attach([this](const Packet& p) { handle_packet(p); });
}

void CacheServer::put(std::uint64_t key, std::uint64_t value) {
  // Stats are counted here (not in handle_packet) so the direct
  // accessors and the networked path stay consistent: a direct put is a
  // SET minus the fabric hop.
  ++stats_.sets;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.value = value;
    touch(it->second.lru_pos);
    return;
  }
  if (map_.size() >= config_.capacity) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{value, lru_.begin()});
}

bool CacheServer::get(std::uint64_t key, std::uint64_t& value_out) {
  ++stats_.gets;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  value_out = it->second.value;
  touch(it->second.lru_pos);
  return true;
}

void CacheServer::handle_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kKvRequest) return;
  const net::KvRequest request = net::decode_kv_request(packet.payload);
  const bool is_set = packet.lambda.workload_id == net::kKvSet;
  std::uint64_t reply = 0;
  if (is_set) {
    put(request.key, request.value);
    reply = request.value;
  } else if (!get(request.key, reply)) {
    reply = 0;
  }

  const SimDuration service = is_set ? kSetService : kGetService;
  Packet response;
  response.src = node_;
  response.dst = packet.src;
  response.kind = PacketKind::kKvResponse;
  response.lambda = packet.lambda;
  response.payload = net::encode_kv_reply(reply);
  sim_.schedule(service, [this, response = std::move(response)]() mutable {
    network_.send(std::move(response));
  });
}

}  // namespace lnic::kvstore
