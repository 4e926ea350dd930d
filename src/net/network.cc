#include "net/network.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace lnic::net {

namespace {
// Per-shard fault-RNG streams: splitmix64's golden-gamma keeps the
// streams decorrelated while shard 0 keeps the exact legacy stream
// (0 * gamma == 0, so seed ^ 0 == seed).
std::uint64_t shard_seed(std::uint64_t seed, unsigned shard) {
  return seed ^ (0x9E3779B97F4A7C15ull * shard);
}
}  // namespace

Network::Network(sim::Simulator& sim, LinkConfig link, FaultConfig faults,
                 std::uint64_t seed)
    : sim_(sim), link_(link), faults_(faults), rng_(seed) {}

Network::Network(sim::ShardedSimulator& sharded, LinkConfig link,
                 FaultConfig faults, std::uint64_t seed)
    : sim_(sharded.shard(0)),
      sharded_(&sharded),
      link_(link),
      faults_(faults),
      rng_(seed) {
  shard_rngs_.reserve(sharded.shards());
  for (unsigned s = 0; s < sharded.shards(); ++s) {
    shard_rngs_.emplace_back(shard_seed(seed, s));
  }
  shard_ports_.resize(sharded.shards());
  // The fabric's minimum cross-shard latency: a packet leaving one shard
  // spends at least propagation + switch forwarding in flight before any
  // state on the destination shard is touched. This is the lookahead
  // contract; zero-delay links are rejected by validate_lookahead().
  sharded.constrain_lookahead(link_.propagation + link_.switch_latency);
  for (unsigned s = 0; s < sharded.shards(); ++s) {
    // Pure function of simulated state: the port census is fixed after
    // setup and next_event_time() is the shard's own queue. A shard whose
    // nodes are all local-only can never send off-shard; an empty shard
    // reports its queue like any other, so only declarations extend.
    sharded.set_eot_source(s, [this, s]() -> SimTime {
      const ShardPorts& ports = shard_ports_[s];
      return ports.attached > 0 && ports.remote == 0
                 ? kSimTimeMax
                 : sharded_->shard(s).next_event_time();
    });
  }
}

Network::~Network() {
  if (sharded_ == nullptr) return;
  for (unsigned s = 0; s < sharded_->shards(); ++s) {
    sharded_->set_eot_source(s, nullptr);
  }
}

void Network::set_attach_shard(unsigned shard) {
  assert(sharded_ == nullptr || shard < sharded_->shards());
  attach_shard_ = shard;
}

NodeId Network::attach(PacketHandler handler, const sim::Simulator* owner) {
  if (sharded_ != nullptr && owner != nullptr &&
      owner != &sharded_->shard(attach_shard_)) {
    std::fprintf(stderr,
                 "Network::attach: node's simulator is not attach shard %u's "
                 "engine — entity state must live on the shard its node is "
                 "attached to\n",
                 attach_shard_);
    std::abort();
  }
  Port port;
  port.handler = std::move(handler);
  port.shard = sharded_ != nullptr ? attach_shard_ : 0;
  ports_.push_back(std::move(port));
  if (sharded_ != nullptr) {
    ++shard_ports_[attach_shard_].attached;
    ++shard_ports_[attach_shard_].remote;
  }
  return static_cast<NodeId>(ports_.size() - 1);
}

void Network::set_local_only(NodeId node, bool local_only) {
  assert(node < ports_.size());
  Port& port = ports_[node];
  if (port.local_only == local_only) return;
  port.local_only = local_only;
  if (sharded_ == nullptr) return;
  if (local_only) {
    --shard_ports_[port.shard].remote;
  } else {
    ++shard_ports_[port.shard].remote;
  }
}

void Network::set_handler(NodeId node, PacketHandler handler) {
  assert(node < ports_.size());
  ports_[node].handler = std::move(handler);
}

SimDuration Network::serialization(Bytes size) const {
  return static_cast<SimDuration>(static_cast<double>(size) * 8.0 /
                                  link_.bandwidth_bps * 1e9);
}

void Network::trace(const Packet& packet, SimTime at, bool dropped) {
  if (tracer_ == nullptr) return;
  if (multi_shard()) {
    std::lock_guard<std::mutex> lk(trace_mu_);
    tracer_->record(packet, at, dropped);
  } else {
    tracer_->record(packet, at, dropped);
  }
}

void Network::send(Packet packet) {
  assert(packet.src < ports_.size() && packet.dst < ports_.size());
  if (!multi_shard()) {
    send_local(std::move(packet), sim_, rng_);
    return;
  }
  const unsigned src_shard = ports_[packet.src].shard;
  const unsigned dst_shard = ports_[packet.dst].shard;
  if (src_shard == dst_shard) {
    send_local(std::move(packet), sharded_->shard(src_shard),
               shard_rngs_[src_shard]);
    return;
  }
  send_cross(std::move(packet), src_shard, dst_shard);
}

void Network::send_local(Packet packet, sim::Simulator& sim, Rng& rng) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(packet.wire_size(), std::memory_order_relaxed);

  if (faults_.drop_probability > 0.0 &&
      rng.next_bool(faults_.drop_probability)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    trace(packet, sim.now(), true);
    return;
  }
  trace(packet, sim.now(), false);

  const SimDuration ser = serialization(packet.wire_size());
  Port& src = ports_[packet.src];
  Port& dst = ports_[packet.dst];

  // Uplink: wait for earlier transmissions from this node to finish.
  const SimTime uplink_start = std::max(sim.now(), src.uplink_free_at);
  const SimTime uplink_done = uplink_start + ser;
  src.uplink_free_at = uplink_done;

  // Switch forwarding, then the receiver's downlink port queue.
  const SimTime at_switch =
      uplink_done + link_.propagation + link_.switch_latency;
  const SimTime downlink_start = std::max(at_switch, dst.downlink_free_at);
  const SimTime downlink_done = downlink_start + ser;
  dst.downlink_free_at = downlink_done;

  SimTime arrival = downlink_done + link_.propagation;

  if (faults_.reorder_probability > 0.0 &&
      rng.next_bool(faults_.reorder_probability)) {
    arrival += static_cast<SimDuration>(
        rng.next_below(static_cast<std::uint64_t>(
            std::max<SimDuration>(1, faults_.reorder_max_extra_delay))));
  }

  sim.schedule_at(arrival, [this, packet = std::move(packet)]() {
    delivered_.fetch_add(1, std::memory_order_relaxed);
    const Port& port = ports_[packet.dst];
    if (port.handler) port.handler(packet);
  });
}

void Network::send_cross(Packet packet, unsigned src_shard,
                         unsigned dst_shard) {
  if (ports_[packet.src].local_only) {
    // The locality promise feeds the EOT reports; breaking it could
    // deliver into another shard's past, so fail loudly.
    std::fprintf(stderr,
                 "Network::send_cross: node %llu was declared local-only "
                 "(set_local_only) but sent from shard %u to shard %u — fix "
                 "the locality declaration or the placement\n",
                 static_cast<unsigned long long>(packet.src), src_shard,
                 dst_shard);
    std::abort();
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(packet.wire_size(), std::memory_order_relaxed);

  sim::Simulator& src_sim = sharded_->shard(src_shard);
  Rng& rng = shard_rngs_[src_shard];

  if (faults_.drop_probability > 0.0 &&
      rng.next_bool(faults_.drop_probability)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    trace(packet, src_sim.now(), true);
    return;
  }
  trace(packet, src_sim.now(), false);

  const SimDuration ser = serialization(packet.wire_size());
  Port& src = ports_[packet.src];

  // Uplink on the sender's shard: it owns the source port.
  const SimTime uplink_start = std::max(src_sim.now(), src.uplink_free_at);
  const SimTime uplink_done = uplink_start + ser;
  src.uplink_free_at = uplink_done;

  const SimTime at_switch =
      uplink_done + link_.propagation + link_.switch_latency;

  // Fault draws stay on the sender's shard so each shard's RNG stream is
  // consumed deterministically; the extra delay rides along.
  SimDuration extra = 0;
  if (faults_.reorder_probability > 0.0 &&
      rng.next_bool(faults_.reorder_probability)) {
    extra = static_cast<SimDuration>(
        rng.next_below(static_cast<std::uint64_t>(
            std::max<SimDuration>(1, faults_.reorder_max_extra_delay))));
  }

  // Downlink queueing and delivery on the destination's shard: it owns
  // the destination port. at_switch >= now + propagation + switch
  // latency, satisfying the lookahead contract.
  sharded_->post(
      src_shard, dst_shard, at_switch,
      sim::EventFn([this, packet = std::move(packet), ser, extra]() mutable {
        Port& dst = ports_[packet.dst];
        sim::Simulator& dst_sim = sharded_->shard(dst.shard);
        const SimTime downlink_start =
            std::max(dst_sim.now(), dst.downlink_free_at);
        const SimTime downlink_done = downlink_start + ser;
        dst.downlink_free_at = downlink_done;
        const SimTime arrival = downlink_done + link_.propagation + extra;
        dst_sim.schedule_at(arrival, [this, packet = std::move(packet)]() {
          delivered_.fetch_add(1, std::memory_order_relaxed);
          const Port& port = ports_[packet.dst];
          if (port.handler) port.handler(packet);
        });
      }));
}

}  // namespace lnic::net
