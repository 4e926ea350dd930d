#include "net/trace.h"

namespace lnic::net {

void PacketTracer::record(const Packet& packet, SimTime now, bool dropped) {
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
  records_.push(r);
}

}  // namespace lnic::net
