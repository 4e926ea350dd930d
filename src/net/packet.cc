#include "net/packet.h"

#include "common/rng.h"

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
  // Also rejects frag_count 0.
  if (index >= count || count > kMaxFragments) return std::nullopt;
  const NodeId src = packet.src;
  const RequestId request_id = packet.lambda.request_id;
  // Only a partial message under the same key can make a fragment
  // inconsistent, so with none open there is nothing to look up.
  std::size_t slot = open_ == 0 ? 0 : find(src, request_id);
  Partial* open = nullptr;
  if (open_ == 0 || index_[slot] == kNone) {
    *added = Added::kFirst;
    if (count == 1) {
      // A whole message in one packet: shared the way coalesce() shares
      // a lone fragment, without touching the table.
      return Message{header_of(packet),
                     packet.payload.slice(0, packet.payload.size())};
    }
    if ((open_ + 1) * 2 > index_.size()) grow();
    slot = find(src, request_id);
    if (spare_.empty()) {
      spare_.push_back(static_cast<std::uint32_t>(records_.size()));
      records_.emplace_back();
    }
    index_[slot] = spare_.back();
    spare_.pop_back();
    ++open_;
    open = &records_[index_[slot]];
    open->header = header_of(packet);
    open->frags.assign(count, Fragment{});
    open->missing = count;
  } else {
    open = &records_[index_[slot]];
    if (count != open->frags.size() || open->frags[index].buffer != kNone) {
      return std::nullopt;
    }
    *added = Added::kLater;
  }
  const Buffer::Ptr& buffer = packet.payload.buffer();
  if (open->buffers.empty() || open->buffers.back() != buffer) {
    open->buffers.push_back(buffer);
  }
  open->frags[index] =
      Fragment{packet.payload.offset(), packet.payload.size(),
               static_cast<std::uint32_t>(open->buffers.size() - 1)};
  if (--open->missing > 0) return std::nullopt;
  Message message{std::move(open->header), body_of(*open)};
  close(slot);
  return message;
}

void Reassembler::discard(NodeId src, RequestId request_id) {
  if (open_ == 0) return;
  const std::size_t slot = find(src, request_id);
  if (index_[slot] != kNone) close(slot);
}

namespace {

std::size_t home_slot(NodeId src, RequestId request_id, std::size_t mask) {
  return static_cast<std::size_t>(
             splitmix64(request_id ^ (src * kSplitMixGamma))) &
         mask;
}

}  // namespace

std::size_t Reassembler::find(NodeId src, RequestId request_id) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = home_slot(src, request_id, mask);
  for (; index_[slot] != kNone; slot = (slot + 1) & mask) {
    const Packet& header = records_[index_[slot]].header;
    if (header.src == src && header.lambda.request_id == request_id) break;
  }
  return slot;
}

void Reassembler::grow() {
  std::vector<std::uint32_t> old = std::move(index_);
  index_.assign(old.empty() ? 16 : old.size() * 2, kNone);
  for (const std::uint32_t record : old) {
    if (record == kNone) continue;
    const Packet& header = records_[record].header;
    index_[find(header.src, header.lambda.request_id)] = record;
  }
}

void Reassembler::close(std::size_t slot) {
  Partial& record = records_[index_[slot]];
  record.buffers.clear();
  spare_.push_back(index_[slot]);
  --open_;
  // Backward-shift deletion: walk the probe run after the hole and move
  // back each entry whose home slot is not between the hole and it, so
  // every entry stays reachable from its home without tombstones.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t i = (slot + 1) & mask; index_[i] != kNone;
       i = (i + 1) & mask) {
    const Packet& header = records_[index_[i]].header;
    const std::size_t home =
        home_slot(header.src, header.lambda.request_id, mask);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = kNone;
}

BufferView Reassembler::body_of(Partial& message) {
  std::size_t total = 0;
  bool contiguous =
      message.buffers.size() == 1 && message.buffers[0] != nullptr;
  std::size_t next_offset = message.frags[0].offset;
  for (const Fragment& f : message.frags) {
    total += f.len;
    if (f.offset != next_offset) contiguous = false;
    next_offset = f.offset + f.len;
  }
  if (contiguous) {
    // In-order slices of the sender's buffer: one spanning view, counted
    // as one share.
    return BufferView(std::move(message.buffers[0]), message.frags[0].offset,
                      total)
        .slice(0, total);
  }
  // Fragments from several buffers (e.g. hand-built test packets), or
  // out of order: coalesce() makes its one counted copy.
  std::vector<BufferView> views;
  views.reserve(message.frags.size());
  for (const Fragment& f : message.frags) {
    views.emplace_back(message.buffers[f.buffer], f.offset, f.len);
  }
  return coalesce(views);
}

}  // namespace lnic::net
