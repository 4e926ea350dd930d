// Request decoding shared by every backend: builds the Micro-C
// invocation (EXTRACTED_HEADERS_T + body + match data) from a request's
// lambda header and payload. The first three payload words carry the
// workload-specific fields (op, key, value — see workloads/lambdas.h
// encoders); image dimensions pack into the op word.
#pragma once

#include <cstdint>
#include <vector>

#include "microc/interp.h"
#include "net/packet.h"

namespace lnic::proto {

inline std::uint64_t payload_word(const BufferView& body,
                                  std::size_t index) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8 && index * 8 + b < body.size(); ++b) {
    v |= static_cast<std::uint64_t>(body[index * 8 + b]) << (8 * b);
  }
  return v;
}

/// Fills `inv` in place from the request header + (reassembled) body,
/// overwriting every field; match_data keeps its storage, so a recycled
/// invocation allocates nothing. `body` is a zero-copy view shared with
/// the packet buffer.
inline void fill_invocation(microc::Invocation& inv,
                            const net::LambdaHeader& header, NodeId src,
                            BufferView body) {
  inv.headers = {};
  inv.headers.fields[microc::kHdrWorkloadId] = header.workload_id;
  inv.headers.fields[microc::kHdrRequestId] = header.request_id;
  inv.headers.fields[microc::kHdrSrcNode] = src;
  inv.headers.fields[microc::kHdrBodyLen] = body.size();
  const std::uint64_t word0 = payload_word(body, 0);
  inv.headers.fields[microc::kHdrOp] = word0;
  inv.headers.fields[microc::kHdrKey] = payload_word(body, 1);
  inv.headers.fields[microc::kHdrValue] = payload_word(body, 2);
  inv.headers.fields[microc::kHdrImageWidth] = word0 & 0xFFFF;
  inv.headers.fields[microc::kHdrImageHeight] = (word0 >> 16) & 0xFFFF;
  inv.body = std::move(body);
  // Route metadata (P4 metadata after reduction).
  inv.match_data.assign(1, 1);
}

/// A fresh invocation filled by fill_invocation().
inline microc::Invocation build_invocation(const net::LambdaHeader& header,
                                           NodeId src, BufferView body) {
  microc::Invocation inv;
  fill_invocation(inv, header, src, std::move(body));
  return inv;
}

}  // namespace lnic::proto
