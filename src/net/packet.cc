#include "net/packet.h"


namespace lnic::net {

const char* to_string(PacketKind kind) {
  switch (kind) {
    case PacketKind::kRequest: return "request";
    case PacketKind::kResponse: return "response";
    case PacketKind::kRdmaWrite: return "rdma-write";
    case PacketKind::kRdmaEvent: return "rdma-event";
    case PacketKind::kKvRequest: return "kv-request";
    case PacketKind::kKvResponse: return "kv-response";
    case PacketKind::kControl: return "control";
  }
  return "?";
}

namespace {

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const BufferView& body, std::size_t at) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && at + i < body.size(); ++i) {
    v |= static_cast<std::uint64_t>(body[at + i]) << (8 * i);
  }
  return v;
}

}  // namespace

Packet make_kv_request(NodeId src, NodeId dst, RequestId request_id,
                       WorkloadId op, std::uint64_t key, std::uint64_t value) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.kind = PacketKind::kKvRequest;
  p.lambda.request_id = request_id;
  p.lambda.workload_id = op;
  std::vector<std::uint8_t> body = recycled_bytes(16);
  body.resize(16);
  put_u64(body.data(), key);
  put_u64(body.data() + 8, value);
  p.payload = std::move(body);
  return p;
}

KvRequest decode_kv_request(const BufferView& body) {
  return KvRequest{get_u64(body, 0), get_u64(body, 8)};
}

std::vector<std::uint8_t> encode_kv_reply(std::uint64_t value) {
  std::vector<std::uint8_t> body = recycled_bytes(8);
  body.resize(8);
  put_u64(body.data(), value);
  return body;
}

std::uint64_t decode_kv_reply(const BufferView& body) {
  return get_u64(body, 0);
}

BufferView make_payload(const std::string& text) {
  // The string→bytes conversion is the only copy; the returned view
  // adopts the vector, so downstream packet/RPC plumbing shares it.
  return BufferView(std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::string payload_to_string(const BufferView& payload) {
  return std::string(payload.begin(), payload.end());
}

namespace {

/// `packet`'s addressing and lambda header, without its payload.
Packet header_of(const Packet& packet) {
  Packet header;
  header.src = packet.src;
  header.dst = packet.dst;
  header.kind = packet.kind;
  header.lambda = packet.lambda;
  return header;
}

}  // namespace

std::optional<Reassembler::Message> Reassembler::add(const Packet& packet,
                                                     Added* added) {
  Added ignored = Added::kDropped;
  if (added == nullptr) added = &ignored;
  *added = Added::kDropped;
  const std::uint32_t count = packet.lambda.frag_count;
  const std::uint32_t index = packet.lambda.frag_index;
  if (index >= count) return std::nullopt;  // also rejects frag_count 0
  const auto key = std::make_pair(packet.src, packet.lambda.request_id);
  // Only a partial message under the same key can make a fragment
  // inconsistent, so with none open there is nothing to look up.
  auto it = partial_.empty() ? partial_.end() : partial_.find(key);
  if (it == partial_.end()) {
    *added = Added::kFirst;
    if (count == 1) {
      // A whole message in one packet: shared the way coalesce() shares
      // a lone fragment, without touching the map.
      return Message{header_of(packet),
                     packet.payload.slice(0, packet.payload.size())};
    }
    it = partial_
             .emplace(key, Partial{header_of(packet),
                                   std::vector<BufferView>(count),
                                   std::vector<bool>(count), count})
             .first;
  } else {
    const Partial& open = it->second;
    if (count != open.frags.size() || open.received[index]) {
      return std::nullopt;
    }
    *added = Added::kLater;
  }
  Partial& open = it->second;
  open.received[index] = true;
  open.frags[index] = packet.payload;
  if (--open.missing > 0) return std::nullopt;
  // Contiguous slices of the sender's buffer coalesce without a copy.
  Message message{std::move(open.header), coalesce(open.frags)};
  partial_.erase(it);
  return message;
}

void Reassembler::discard(NodeId src, RequestId request_id) {
  partial_.erase(std::make_pair(src, request_id));
}

}  // namespace lnic::net
