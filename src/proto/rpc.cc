#include "proto/rpc.h"

#include <algorithm>
#include <cassert>

#include "common/flightrec.h"
#include "common/rng.h"

namespace lnic::proto {

using net::Packet;
using net::PacketKind;

void RttEstimator::sample(SimDuration rtt) {
  const double r = static_cast<double>(rtt);
  if (!has_) {
    // First sample (RFC 6298 §2.2): srtt = R, rttvar = R/2.
    srtt_ = r;
    rttvar_ = r / 2.0;
    has_ = true;
    return;
  }
  const double err = r - srtt_;
  srtt_ += err / 8.0;
  rttvar_ += (std::abs(err) - rttvar_) / 4.0;
}

SimDuration RttEstimator::rto(SimDuration min_rto, SimDuration max_rto) const {
  const double raw = srtt_ + 4.0 * rttvar_;
  const auto rto = static_cast<SimDuration>(raw);
  return std::clamp(rto, min_rto, max_rto);
}

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
  if (tracer_ != nullptr && ctx.valid()) {
    pending->ctx = ctx;
    pending->call_span =
        tracer_->start_span(ctx.trace, ctx.parent, "rpc.call", sim_.now());
    tracer_->annotate(pending->call_span, "dst", std::to_string(dst));
  }
  transmit(id, *pending);
  arm_timer(id, *pending);
}

SimDuration RpcClient::current_rto(NodeId dst) const {
  if (config_.adaptive) {
    const auto it = estimators_.find(dst);
    if (it != estimators_.end() && it->second.has_sample()) {
      return it->second.rto(config_.min_rto, config_.max_rto);
    }
  }
  return config_.retransmit_timeout;
}

const RttEstimator* RpcClient::estimator(NodeId dst) const {
  const auto it = estimators_.find(dst);
  if (it == estimators_.end() || !it->second.has_sample()) return nullptr;
  return &it->second;
}

void RpcClient::transmit(RequestId id, Pending& p) {
  net::LambdaHeader hdr;
  hdr.workload_id = p.workload;
  hdr.request_id = id;
  hdr.tenant_id = p.tenant;
  if (p.call_span != trace::kInvalidSpan) {
    p.attempt_span = tracer_->start_span(p.ctx.trace, p.call_span,
                                         "rpc.attempt", sim_.now());
    tracer_->annotate(p.attempt_span, "retry", std::to_string(p.retries));
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

SimDuration RpcClient::retransmit_delay(const Pending& p, RequestId id) const {
  if (!config_.adaptive) return config_.retransmit_timeout;
  SimDuration base = current_rto(p.dst);
  // Exponential backoff on consecutive retries of the same request,
  // saturating at max_rto.
  for (std::uint32_t i = 0; i < p.retries && base < config_.max_rto; ++i) {
    base = std::min<SimDuration>(config_.max_rto, base * 2);
  }
  if (p.retries > 0 && base > 4) {
    // Up to 25% deterministic jitter so synchronized retries fan out
    // instead of re-colliding (the retransmission-storm guard): a
    // SplitMix64 hash of (request id, retry count) keeps replays
    // bit-reproducible while decorrelating concurrent retry clocks.
    base += static_cast<SimDuration>(
        splitmix64(id * kSplitMixGamma + p.retries) %
        static_cast<std::uint64_t>(base / 4));
    base = std::min(base, config_.max_rto);
  }
  return base;
}

void RpcClient::arm_timer(RequestId id, Pending& p) {
  p.timer = sim_.schedule(retransmit_delay(p, id),
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
  if (p.attempt_span != trace::kInvalidSpan) {
    tracer_->annotate(p.attempt_span, "timeout", "true");
    tracer_->end_span(p.attempt_span, sim_.now());
    p.attempt_span = trace::kInvalidSpan;
  }
  if (p.retries >= config_.max_retries) {
    ++failures_;
    flightrec::FlightRecorder::global().record(
        sim_.now(), flightrec::Kind::kRtoBackoff, id, p.retries,
        "request " + std::to_string(id) + " timed out after " +
            std::to_string(p.retries) + " retries");
    if (p.call_span != trace::kInvalidSpan) {
      tracer_->annotate(p.call_span, "error", "timed out after retries");
      tracer_->end_span(p.call_span, sim_.now());
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

  // Karn's rule: a response to a retransmitted request is ambiguous (it
  // may answer any of the transmissions), so it contributes no sample.
  if (p.retries == 0) {
    estimators_[p.dst].sample(sim_.now() - p.sent_at);
  }

  RpcResponse response;
  // Zero-copy on the fast path: response fragments are contiguous
  // slices of the responder's buffer, so this is a spanning view.
  response.payload = std::move(message->body);
  response.latency = sim_.now() - p.sent_at;
  response.retries = p.retries;
  if (p.attempt_span != trace::kInvalidSpan) {
    tracer_->end_span(p.attempt_span, sim_.now());
  }
  if (p.call_span != trace::kInvalidSpan) {
    tracer_->annotate(p.call_span, "retries", std::to_string(p.retries));
    tracer_->end_span(p.call_span, sim_.now());
  }
  if (p.timer != sim::kInvalidEvent) sim_.cancel(p.timer);
  // The slot is free before the callback runs, so a callback that calls
  // again may reuse it.
  RpcCallback cb = pending_.take(id).callback;
  if (cb) cb(std::move(response));
}

}  // namespace lnic::proto
