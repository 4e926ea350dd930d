#include "net/trace.h"

namespace lnic::net {

void PacketTracer::set_capacity(std::size_t max_records) {
  capacity_ = max_records;
  while (records_.size() > capacity_) {
    records_.pop_front();
    ++evicted_;
  }
}

void PacketTracer::record(const Packet& packet, SimTime now, bool dropped) {
  if (capacity_ == 0) {
    ++evicted_;
    return;
  }
  while (records_.size() >= capacity_) {
    records_.pop_front();
    ++evicted_;
  }
  Record r;
  r.time = now;
  r.src = packet.src;
  r.dst = packet.dst;
  r.kind = packet.kind;
  r.workload = packet.lambda.workload_id;
  r.request = packet.lambda.request_id;
  r.frag_index = packet.lambda.frag_index;
  r.frag_count = packet.lambda.frag_count;
  r.wire_bytes = packet.wire_size();
  r.dropped = dropped;
  records_.push_back(r);
}

}  // namespace lnic::net
