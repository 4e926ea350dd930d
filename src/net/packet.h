// Packet and header model for the simulated fabric.
//
// Requests carry the λ-NIC lambda header (paper §4.1): the gateway inserts
// the workload ID of the destination lambda; the NIC match stage
// dispatches on it. Multi-packet payloads are fragmented and carry
// (frag_index, frag_count) so the receiver's reorder buffer (Reassembler)
// can reassemble out-of-order arrivals (paper §4.2.1 D3).
//
// Payloads are zero-copy: a Packet carries a BufferView into a
// refcounted immutable Buffer (common/buffer.h). fragment() slices the
// source buffer instead of copying it, so every fragment — and, after
// coalesce(), the reassembled body — shares the producer's storage.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/trace.h"
#include "common/types.h"

namespace lnic::net {

using lnic::Buffer;
using lnic::BufferView;

/// Wire overhead of Ethernet + IPv4 + UDP framing, bytes.
constexpr Bytes kFrameOverhead = 14 + 20 + 8;
/// Size of the λ-NIC lambda header, bytes.
constexpr Bytes kLambdaHeaderSize = 24;
/// Largest payload per packet (jumbo frames disabled, as on the testbed).
constexpr Bytes kMaxPayload = 1400;
/// Most fragments in one message: the largest any sender makes is a
/// lambda response at the interpreter's 32 MiB cap (microc::kMaxResponse).
constexpr std::uint32_t kMaxFragments = 23968;

enum class PacketKind : std::uint8_t {
  kRequest,      // single-packet lambda RPC request
  kResponse,     // lambda RPC response
  kRdmaWrite,    // one segment of a multi-packet RDMA write
  kRdmaEvent,    // event RPC that triggers a lambda after RDMA completion
  kKvRequest,    // cache-server GET/SET issued by a key-value lambda
  kKvResponse,   // cache-server reply
  kControl,      // framework control traffic (deploy, raft, etcd)
};

const char* to_string(PacketKind kind);

/// λ-NIC lambda header: inserted by the gateway in front of each request.
struct LambdaHeader {
  WorkloadId workload_id = kInvalidWorkload;
  RequestId request_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  /// Tenant namespace of the target lambda (0 = single-tenant legacy
  /// traffic). Packs into the header's reserved bits on the wire, so the
  /// modeled header size — and therefore all timing — is unchanged.
  TenantId tenant_id = kDefaultTenant;
  /// Distributed-tracing context (0 = untraced). Rides in the header the
  /// way W3C traceparent rides in HTTP; the modeled header size is
  /// unchanged so wire timing is identical with tracing on or off.
  trace::TraceId trace_id = trace::kInvalidTrace;
  trace::SpanId parent_span = trace::kInvalidSpan;
};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketKind kind = PacketKind::kRequest;
  LambdaHeader lambda;
  BufferView payload;

  /// Total on-the-wire size including framing.
  Bytes wire_size() const {
    return kFrameOverhead + kLambdaHeaderSize + payload.size();
  }
};

/// KV GET/SET wire format, spoken by the NIC and host KV clients, the
/// CacheServer and the TxnStore. A kKvRequest carries GET or SET in its
/// lambda header's workload_id; its body is the key, then the value
/// (unused by GET), each a little-endian u64. The kKvResponse body is
/// one little-endian u64. The decoders read missing bytes as zero.
constexpr WorkloadId kKvGet = 0;
constexpr WorkloadId kKvSet = 1;

struct KvRequest {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

/// A kKvRequest from `src` to `dst`; `op` is kKvGet or kKvSet.
Packet make_kv_request(NodeId src, NodeId dst, RequestId request_id,
                       WorkloadId op, std::uint64_t key, std::uint64_t value);
KvRequest decode_kv_request(const BufferView& body);
std::vector<std::uint8_t> encode_kv_reply(std::uint64_t value);
std::uint64_t decode_kv_reply(const BufferView& body);

/// Builds a payload from a string (request bodies in examples/tests).
/// Returns a view adopting freshly built storage — callers hand it to
/// Packet/RPC APIs without a further copy.
BufferView make_payload(const std::string& text);
std::string payload_to_string(const BufferView& payload);

/// Splits `payload` into <=kMaxPayload fragments, all sharing `header`'s
/// workload/request IDs with frag_index/frag_count filled in, and hands
/// each to `emit` (called with a Packet rvalue) in fragment order —
/// usually straight to Network::send. Fragments are views into
/// `payload`'s buffer: no bytes are copied, and nothing is allocated.
template <typename Emit>
void fragment(NodeId src, NodeId dst, PacketKind kind,
              const LambdaHeader& header, const BufferView& payload,
              Emit&& emit) {
  const std::size_t total = payload.size();
  const std::size_t count =
      total == 0 ? 1 : (total + kMaxPayload - 1) / kMaxPayload;
  assert(count <= kMaxFragments);
  for (std::size_t i = 0; i < count; ++i) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.kind = kind;
    p.lambda = header;
    p.lambda.frag_index = static_cast<std::uint32_t>(i);
    p.lambda.frag_count = static_cast<std::uint32_t>(count);
    const std::size_t begin = i * kMaxPayload;
    const std::size_t end = std::min(total, begin + kMaxPayload);
    p.payload = payload.slice(begin, end - begin);
    emit(std::move(p));
  }
}

/// The receiver side of fragment(): a reorder buffer keyed by (source
/// node, request id). Every receiver of multi-packet messages — the NIC's
/// RDMA staging, the host server, the host-memory RDMA target, the RDMA
/// queue pair and the RPC client — reassembles through one of these.
///
/// Receipt is tracked per fragment index, so a duplicate, even an empty
/// one, never counts twice. A fragment is dropped when its frag_count is
/// 0 or above kMaxFragments, its frag_index is not below frag_count, or
/// its frag_count differs from the first fragment of its message, before
/// anything is sized by its count. A one-fragment message is
/// never stored: it completes at once. Partial messages stay until they
/// complete or are discarded.
///
/// Partial messages sit in a flat table, found by (source, request id)
/// through an open-addressed index, and their records are reused, so a
/// warm receiver allocates nothing per message. A message holds each
/// buffer its fragments slice once, not once per fragment.
class Reassembler {
 public:
  /// A message whose fragments have all arrived.
  struct Message {
    Packet header;    // the first fragment to arrive, payload cleared
    BufferView body;  // the fragments in order, shared like coalesce()
  };

  /// What add() did with one fragment.
  enum class Added : std::uint8_t {
    kDropped,  // malformed, inconsistent with its message, or a duplicate
    kFirst,    // the first fragment of its message to arrive
    kLater,    // a new fragment of a message already open
  };

  /// Takes one fragment and returns its message once it is complete.
  /// `added`, when given, reports what happened to the fragment itself.
  std::optional<Message> add(const Packet& packet, Added* added = nullptr);

  /// Forgets the partial message from `src` with `request_id`, if any.
  void discard(NodeId src, RequestId request_id);

  /// Messages with some, but not all, fragments received.
  std::size_t partial() const { return open_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Where a received fragment's bytes lie: `buffer` indexes its
  /// message's `buffers`, and is kNone until the fragment arrives.
  struct Fragment {
    std::size_t offset = 0;
    std::size_t len = 0;
    std::uint32_t buffer = kNone;
  };
  /// One partial message. Records outlive their messages, so the
  /// vectors keep their capacity for the next.
  struct Partial {
    Packet header;
    std::vector<Fragment> frags;       // by frag_index
    std::vector<Buffer::Ptr> buffers;  // a new entry per change of buffer
    std::uint32_t missing = 0;
  };

  /// The index slot holding the message from `src` with `request_id`,
  /// or the empty slot where it would go. The index is never full.
  std::size_t find(NodeId src, RequestId request_id) const;
  /// Doubles the index.
  void grow();
  /// Frees the message in index slot `slot` and its record.
  void close(std::size_t slot);
  /// The body of a complete message, shared like coalesce().
  BufferView body_of(Partial& message);

  std::vector<Partial> records_;
  std::vector<std::uint32_t> spare_;  // records_ not in use
  // Linear probing over a power of two of slots, each kNone or an index
  // into records_, at most half of them full.
  std::vector<std::uint32_t> index_;
  std::size_t open_ = 0;
};

}  // namespace lnic::net
