#include "proto/rpc.h"

namespace lnic::proto {

using net::Packet;
using net::PacketKind;

RpcClient::RpcClient(sim::Simulator& sim, net::Network& network,
                     RpcConfig config)
    : sim_(sim), network_(network), config_(config) {
  node_ = network_.attach([this](const Packet& p) { on_packet(p); });
}

void RpcClient::call(NodeId dst, WorkloadId workload, net::BufferView payload,
                     RpcCallback callback, trace::SpanContext ctx,
                     TenantId tenant) {
  const auto [id, pending] = pending_.add();
  pending->dst = dst;
  pending->workload = workload;
  pending->tenant = tenant;
  pending->payload = std::move(payload);
  pending->callback = std::move(callback);
  pending->sent_at = sim_.now();
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && ctx.valid()) {
    pending->ctx = ctx;
    pending->call_span =
        tracer->start_span(ctx.trace, ctx.parent, "rpc.call", sim_.now());
    tracer->annotate(pending->call_span, "dst", std::to_string(dst));
  }
  transmit(id, *pending);
  arm_timer(id, *pending);
}

void RpcClient::transmit(RequestId id, Pending& p) {
  net::LambdaHeader hdr;
  hdr.workload_id = p.workload;
  hdr.request_id = id;
  hdr.tenant_id = p.tenant;
  trace::TraceRecorder* tracer = sim_.tracer();
  if (p.call_span != trace::kInvalidSpan && tracer != nullptr) {
    p.attempt_span = tracer->start_span(p.ctx.trace, p.call_span,
                                        "rpc.attempt", sim_.now());
    tracer->annotate(p.attempt_span, "retry", std::to_string(p.retries));
    hdr.trace_id = p.ctx.trace;
    hdr.parent_span = p.attempt_span;
  }
  // Single-packet requests go through parse+match directly; larger
  // payloads are committed to NIC memory via RDMA (D3).
  const PacketKind kind = p.payload.size() > net::kMaxPayload
                              ? PacketKind::kRdmaWrite
                              : PacketKind::kRequest;
  net::fragment(node_, p.dst, kind, hdr, p.payload,
                [this](Packet f) { network_.send(std::move(f)); });
}

void RpcClient::arm_timer(RequestId id, Pending& p) {
  p.timer = sim_.schedule(config_.retransmit_timeout,
                          [this, id] { on_timeout(id); });
}

void RpcClient::on_timeout(RequestId id) {
  Pending* found = pending_.find(id);
  if (found == nullptr) return;  // a stale timer: the request finished
  Pending& p = *found;
  p.timer = sim::kInvalidEvent;
  // Whether it retransmits or gives up, the request drops any partial
  // response: a retransmission is answered whole.
  responses_.discard(p.dst, id);
  trace::TraceRecorder* tracer = sim_.tracer();
  if (p.attempt_span != trace::kInvalidSpan && tracer != nullptr) {
    tracer->annotate(p.attempt_span, "timeout", "true");
    tracer->end_span(p.attempt_span, sim_.now());
  }
  p.attempt_span = trace::kInvalidSpan;
  if (p.retries >= config_.max_retries) {
    ++failures_;
    sim_.flight_recorder().record(
        sim_.now(), flightrec::Kind::kRpcTimeout, id, p.retries,
        "request " + std::to_string(id) + " timed out after " +
            std::to_string(p.retries) + " retries");
    if (p.call_span != trace::kInvalidSpan && tracer != nullptr) {
      tracer->annotate(p.call_span, "error", "timed out after retries");
      tracer->end_span(p.call_span, sim_.now());
    }
    RpcCallback cb = pending_.take(id).callback;
    if (cb) cb(make_error("rpc: request timed out after retries"));
    return;
  }
  ++p.retries;
  ++retransmissions_;
  // Weakly-consistent delivery: resend the whole message; receivers
  // treat duplicate (src, request id) pairs idempotently.
  transmit(id, p);
  arm_timer(id, p);
}

void RpcClient::on_packet(const Packet& packet) {
  if (packet.kind != PacketKind::kResponse) return;
  const RequestId id = packet.lambda.request_id;
  Pending* found = pending_.find(id);
  if (found == nullptr) return;  // late duplicate after completion
  auto message = responses_.add(packet);
  if (!message) return;
  Pending& p = *found;
  RpcResponse response;
  // Zero-copy on the fast path: response fragments are contiguous
  // slices of the responder's buffer, so this is a spanning view.
  response.payload = std::move(message->body);
  response.latency = sim_.now() - p.sent_at;
  response.retries = p.retries;
  trace::TraceRecorder* tracer = sim_.tracer();
  if (p.call_span != trace::kInvalidSpan && tracer != nullptr) {
    tracer->end_span(p.attempt_span, sim_.now());
    tracer->annotate(p.call_span, "retries", std::to_string(p.retries));
    tracer->end_span(p.call_span, sim_.now());
  }
  if (p.timer != sim::kInvalidEvent) sim_.cancel(p.timer);
  // The slot is free before the callback runs, so a callback that calls
  // again may reuse it.
  RpcCallback cb = pending_.take(id).callback;
  if (cb) cb(std::move(response));
}

}  // namespace lnic::proto
