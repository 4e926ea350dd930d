#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace lnic::net {

namespace {

constexpr double kBandwidthBps = 10e9;        // 10 Gbps testbed links
constexpr SimDuration kPropagation = 500;     // 0.5 us per hop
constexpr SimDuration kSwitchLatency = 800;   // store-and-forward + lookup

SimDuration serialization(Bytes size) {
  return static_cast<SimDuration>(static_cast<double>(size) * 8.0 /
                                  kBandwidthBps * 1e9);
}

}  // namespace

Network::Network(sim::Simulator& sim, FaultConfig faults, std::uint64_t seed)
    : sim_(sim), faults_(faults), rng_(seed) {}

NodeId Network::attach(PacketHandler handler) {
  Port port;
  port.handler = std::move(handler);
  ports_.push_back(std::move(port));
  return static_cast<NodeId>(ports_.size() - 1);
}

void Network::set_handler(NodeId node, PacketHandler handler) {
  assert(node < ports_.size());
  ports_[node].handler = std::move(handler);
}

void Network::send(Packet packet) {
  assert(packet.src < ports_.size() && packet.dst < ports_.size());
  ++sent_;
  bytes_ += packet.wire_size();

  if (faults_.drop_probability > 0.0 &&
      rng_.next_bool(faults_.drop_probability)) {
    ++dropped_;
    if (tracer_ != nullptr) tracer_->record(packet, sim_.now(), true);
    return;
  }
  if (tracer_ != nullptr) tracer_->record(packet, sim_.now(), false);

  const SimDuration ser = serialization(packet.wire_size());
  Port& src = ports_[packet.src];
  Port& dst = ports_[packet.dst];

  // Uplink: wait for earlier transmissions from this node to finish.
  const SimTime uplink_start = std::max(sim_.now(), src.uplink_free_at);
  const SimTime uplink_done = uplink_start + ser;
  src.uplink_free_at = uplink_done;

  // Switch forwarding, then the receiver's downlink port queue.
  const SimTime at_switch = uplink_done + kPropagation + kSwitchLatency;
  const SimTime downlink_start = std::max(at_switch, dst.downlink_free_at);
  const SimTime downlink_done = downlink_start + ser;
  dst.downlink_free_at = downlink_done;

  SimTime arrival = downlink_done + kPropagation;

  if (faults_.reorder_probability > 0.0 &&
      rng_.next_bool(faults_.reorder_probability)) {
    arrival += static_cast<SimDuration>(
        rng_.next_below(static_cast<std::uint64_t>(
            std::max<SimDuration>(1, faults_.reorder_max_extra_delay))));
  }

  sim_.schedule_at(arrival, [this, packet = std::move(packet)]() {
    ++delivered_;
    const Port& port = ports_[packet.dst];
    if (port.handler) port.handler(packet);
  });
}

}  // namespace lnic::net
