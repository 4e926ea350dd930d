#include "framework/gateway.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <optional>
#include <sstream>

namespace lnic::framework {

namespace {
/// Routing/NAT lookup cost per proxied request.
constexpr SimDuration kProxyOverhead = microseconds(20);
/// How long a failed-over worker stays out of the rotation before it
/// becomes eligible again (a HealthChecker probe can reinstate it
/// earlier — or keep extending the quarantine while probes fail).
constexpr SimDuration kQuarantineCooldown = seconds(2);

/// Strict non-negative integer parse: the whole token must be digits
/// (std::stoul would accept "2x" as 2 and wrap "-1" to a huge value).
std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return value;
}

/// Metric label for a replica's backend kind without pulling the
/// backends layer into the gateway (mirrors backends::BackendKind).
const char* backend_kind_label(std::uint8_t kind) {
  switch (kind) {
    case 0: return "nic";
    case 1: return "baremetal";
    case 2: return "container";
    default: return "unknown";
  }
}

/// Index of a backend kind's label in FunctionState::rpc_latency: the
/// three known kinds, then one slot for every kind labelled "unknown".
std::size_t backend_slot(std::uint8_t kind) { return kind < 3 ? kind : 3; }
}  // namespace

Gateway::Gateway(sim::Simulator& sim, net::Network& network,
                 GatewayConfig config)
    : sim_(sim), config_(config), rpc_(sim, network, config.rpc) {}

const Gateway::FunctionState* Gateway::find_function(
    const std::string& name) const {
  const auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

Gateway::FunctionState& Gateway::intern(const std::string& name) {
  const auto [it, fresh] = functions_.try_emplace(name);
  if (fresh) it->second.name = name;
  return it->second;
}

void Gateway::set_route(const std::string& name, Route route) {
  FunctionState& fn = intern(name);
  if (!fn.route || fn.route->tenant != route.tenant) {
    fn.unbind_tenant_series();
  }
  fn.route = std::move(route);
  check_bound_handles(fn);
}

void Gateway::check_bound_handles(const FunctionState& fn) {
#ifndef NDEBUG
  // A handle is bound once and used on every request, so a label change
  // that left one bound would write every later sample to the old
  // series.
  assert(fn.requests == nullptr ||
         fn.requests ==
             &metrics_.counter("gateway_requests_total", labels_of(fn)));
  for (std::size_t slot = 0; slot < fn.rpc_latency.size(); ++slot) {
    const auto kind = slot < 3 ? static_cast<std::uint8_t>(slot)
                               : kUnknownBackendKind;
    assert(fn.rpc_latency[slot] == nullptr ||
           fn.rpc_latency[slot] ==
               &metrics_.histogram("rpc_latency_ns", rpc_labels(fn, kind)));
  }
#else
  (void)fn;
#endif
}

void Gateway::register_function(const std::string& name, WorkloadId workload,
                                std::vector<NodeId> workers) {
  std::vector<Replica> replicas;
  replicas.reserve(workers.size());
  for (NodeId node : workers) {
    replicas.push_back(Replica{node, kUnknownBackendKind});
  }
  set_route(name, Route{workload, kDefaultTenant, std::move(workers),
                        std::move(replicas)});
}

void Gateway::register_replicas(const std::string& name, WorkloadId workload,
                                std::vector<Replica> replicas,
                                TenantId tenant) {
  std::vector<NodeId> workers;
  workers.reserve(replicas.size());
  for (const auto& replica : replicas) workers.push_back(replica.node);
  set_route(name, Route{workload, tenant, std::move(workers),
                        std::move(replicas)});
}

TenantId Gateway::register_tenant(const std::string& name) {
  const auto it = tenant_ids_.find(name);
  if (it != tenant_ids_.end()) return it->second;
  const TenantId id = next_tenant_++;
  tenant_ids_[name] = id;
  tenant_names_[id] = name;
  // Routes already in this namespace were labelled "tenant-<id>" so far.
  for (auto& [fn_name, fn] : functions_) {
    (void)fn_name;
    if (fn.route && fn.route->tenant == id) fn.unbind_tenant_series();
    check_bound_handles(fn);
  }
  return id;
}

std::string Gateway::tenant_label(TenantId tenant) const {
  const auto it = tenant_names_.find(tenant);
  if (it != tenant_names_.end()) return it->second;
  return "tenant-" + std::to_string(tenant);
}

Labels Gateway::metric_labels(const std::string& name) const {
  const FunctionState* fn = find_function(name);
  return fn != nullptr ? labels_of(*fn) : Labels{{"fn", name}};
}

Labels Gateway::labels_of(const FunctionState& fn) const {
  if (!fn.route || fn.route->tenant == kDefaultTenant) {
    return {{"fn", fn.name}};
  }
  return {{"fn", fn.name}, {"tenant", tenant_label(fn.route->tenant)}};
}

Labels Gateway::rpc_labels(const FunctionState& fn, std::uint8_t kind) const {
  Labels labels = labels_of(fn);
  labels.emplace_back("backend", backend_kind_label(kind));
  return labels;
}

void Gateway::set_rate_limit(const std::string& name, RateLimit limit) {
  Bucket& bucket = intern(name).bucket;
  bucket.limit = limit;
  bucket.tokens = limit.burst;
  bucket.refilled_at = sim_.now();
}

bool Gateway::admit(FunctionState& fn) {
  Bucket& b = fn.bucket;
  if (b.limit.requests_per_second <= 0.0) return true;
  const double elapsed = to_sec(sim_.now() - b.refilled_at);
  b.tokens = std::min(b.limit.burst,
                      b.tokens + elapsed * b.limit.requests_per_second);
  b.refilled_at = sim_.now();
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

const Route* Gateway::route(const std::string& name) const {
  const FunctionState* fn = find_function(name);
  return fn != nullptr && fn->route ? &*fn->route : nullptr;
}

void Gateway::invoke(const std::string& name, net::BufferView payload,
                     InvokeCallback callback) {
  const auto it = functions_.find(name);
  if (it == functions_.end() || !it->second.route ||
      it->second.route->workers.empty()) {
    metrics_.counter("gateway_unroutable_total").increment();
    if (callback) callback(make_error("gateway: no route for '" + name + "'"));
    return;
  }
  FunctionState& fn = it->second;
  if (!admit(fn)) {
    metrics_.counter("gateway_throttled_total", {{"fn", name}}).increment();
    if (callback) {
      callback(make_error("gateway: '" + name + "' throttled by rate limit"));
    }
    return;
  }
  // Bound once; set_route and register_tenant unbind it when its labels
  // change (check_bound_handles).
  if (fn.requests == nullptr) {
    fn.requests = &metrics_.counter("gateway_requests_total", labels_of(fn));
  }
  fn.requests->increment();

  // The simulation's recorder allocates the trace id, or none for a
  // request its sampling rate skips.
  trace::SpanContext ctx;
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr) ctx.trace = tracer->new_trace();
  if (ctx.valid()) {
    const trace::SpanId root = tracer->start_span(
        ctx.trace, trace::kInvalidSpan, "request", sim_.now());
    tracer->annotate(root, "fn", name);
    if (fn.route->tenant != kDefaultTenant) {
      tracer->annotate(root, "tenant", tenant_label(fn.route->tenant));
    }
    // The root span closes when the request finishes, whatever path
    // (success, shed, failover exhaustion) got it there (finish()).
    ctx.parent = root;
  }

  if (config_.max_inflight_per_function == 0) {
    dispatch(fn, std::move(payload), std::move(callback),
             config_.failover_attempts, ctx, /*limited=*/false);
    return;
  }
  submit(fn, std::move(payload), std::move(callback), ctx);
}

void Gateway::finish(FunctionState& fn, bool limited,
                     const trace::SpanContext& ctx, InvokeCallback& callback,
                     Result<proto::RpcResponse> result) {
  if (limited) on_complete(fn);
  trace::TraceRecorder* tracer = sim_.tracer();
  if (ctx.valid() && tracer != nullptr) {
    const trace::SpanId root = ctx.parent;
    tracer->annotate(root, "status", result.ok() ? "ok" : "error");
    if (!result.ok()) tracer->annotate(root, "error", result.error().message);
    tracer->end_span(root, sim_.now());
  }
  if (callback) callback(std::move(result));
}

void Gateway::shed(FunctionState& fn, InvokeCallback& callback,
                   const trace::SpanContext& ctx, const char* reason,
                   trace::SpanId queue_span) {
  trace::TraceRecorder* tracer = sim_.tracer();
  if (queue_span != trace::kInvalidSpan && tracer != nullptr) {
    tracer->annotate(queue_span, "shed", reason);
    tracer->end_span(queue_span, sim_.now());
  }
  metrics_.counter("gateway_shed_total", {{"fn", fn.name}}).increment();
  sim_.flight_recorder().record(
      sim_.now(), flightrec::Kind::kGatewayShed,
      "'" + fn.name + "' " + reason);
  finish(fn, /*limited=*/false, ctx, callback,
         make_error("gateway: '" + fn.name + "' overloaded (" +
                    std::string(reason) + ")"));
}

void Gateway::submit(FunctionState& fn, net::BufferView&& payload,
                     InvokeCallback&& callback, trace::SpanContext ctx) {
  if (fn.inflight < config_.max_inflight_per_function) {
    start_limited(fn, std::move(payload), std::move(callback), ctx);
    return;
  }
  if (fn.queue.size() >= config_.max_queue_depth) {
    shed(fn, callback, ctx, "queue full");
    return;
  }
  Queued queued;
  queued.id = next_queued_id_++;
  queued.payload = std::move(payload);
  queued.callback = std::move(callback);
  queued.enqueued_at = sim_.now();
  queued.ctx = ctx;
  if (sim_.tracer() != nullptr && ctx.valid()) {
    queued.queue_span = sim_.tracer()->start_span(
        ctx.trace, ctx.parent, "gateway.queue", sim_.now());
  }
  const std::uint64_t qid = queued.id;
  fn.queue.push_back(std::move(queued));
  if (fn.queue_depth == nullptr) {
    fn.queue_depth =
        &metrics_.sampler("gateway_queue_depth", {{"fn", fn.name}});
  }
  fn.queue_depth->add(static_cast<double>(fn.queue.size()));
  // Deadline-based shedding: a queued request that cannot start in time
  // fails fast instead of waiting for capacity that may never free up.
  sim_.schedule(config_.queue_deadline,
                [this, fn = &fn, qid] { expire_queued(*fn, qid); });
}

void Gateway::start_limited(FunctionState& fn, net::BufferView&& payload,
                            InvokeCallback&& callback, trace::SpanContext ctx) {
  ++fn.inflight;
  dispatch(fn, std::move(payload), std::move(callback),
           config_.failover_attempts, ctx, /*limited=*/true);
}

void Gateway::expire_queued(FunctionState& fn, std::uint64_t queued_id) {
  auto& queue = fn.queue;
  const auto pos = std::find_if(queue.begin(), queue.end(),
                                [queued_id](const Queued& q) {
                                  return q.id == queued_id;
                                });
  if (pos == queue.end()) return;  // already dispatched or shed
  InvokeCallback callback = std::move(pos->callback);
  const trace::SpanContext ctx = pos->ctx;
  const trace::SpanId queue_span = pos->queue_span;
  queue.erase(pos);
  shed(fn, callback, ctx, "deadline exceeded", queue_span);
}

void Gateway::on_complete(FunctionState& fn) {
  if (fn.inflight > 0) --fn.inflight;
  while (fn.inflight < config_.max_inflight_per_function &&
         !fn.queue.empty()) {
    Queued next = std::move(fn.queue.front());
    fn.queue.pop_front();
    if (sim_.now() - next.enqueued_at > config_.queue_deadline) {
      shed(fn, next.callback, next.ctx, "deadline exceeded", next.queue_span);
      continue;
    }
    if (sim_.tracer() != nullptr) {
      sim_.tracer()->end_span(next.queue_span, sim_.now());
    }
    start_limited(fn, std::move(next.payload), std::move(next.callback),
                  next.ctx);
  }
}

void Gateway::remove_worker(NodeId worker) {
  for (auto& [name, fn] : functions_) {
    (void)name;
    if (!fn.route) continue;
    Route& route = *fn.route;
    route.workers.erase(
        std::remove(route.workers.begin(), route.workers.end(), worker),
        route.workers.end());
    route.replicas.erase(
        std::remove_if(route.replicas.begin(), route.replicas.end(),
                       [worker](const Replica& r) { return r.node == worker; }),
        route.replicas.end());
  }
  reinstate_worker(worker);  // drop any stale quarantine entry
}

void Gateway::quarantine_worker(NodeId worker) {
  const bool fresh = !is_quarantined(worker);
  quarantined_until_[worker] = sim_.now() + kQuarantineCooldown;
  if (fresh) {
    metrics_.counter("gateway_quarantine_total").increment();
    sim_.flight_recorder().record(
        sim_.now(), flightrec::Kind::kGatewayQuarantine, worker, 0,
        "worker " + std::to_string(worker) + " quarantined");
  }
  metrics_.gauge("gateway_quarantined") =
      static_cast<double>(quarantined_until_.size());
  // Cooldown lapse reinstates automatically even without a HealthChecker
  // (failed requests then re-quarantine if the worker is still dead).
  sim_.schedule(kQuarantineCooldown, [this, worker] {
    const auto it = quarantined_until_.find(worker);
    if (it != quarantined_until_.end() && it->second <= sim_.now()) {
      quarantined_until_.erase(it);
      metrics_.gauge("gateway_quarantined") =
          static_cast<double>(quarantined_until_.size());
    }
  });
}

void Gateway::reinstate_worker(NodeId worker) {
  if (quarantined_until_.erase(worker) > 0) {
    metrics_.gauge("gateway_quarantined") =
        static_cast<double>(quarantined_until_.size());
  }
}

bool Gateway::is_quarantined(NodeId worker) const {
  const auto it = quarantined_until_.find(worker);
  return it != quarantined_until_.end() && sim_.now() < it->second;
}

std::size_t Gateway::quarantined_count() const {
  std::size_t n = 0;
  for (const auto& [worker, until] : quarantined_until_) {
    (void)worker;
    if (sim_.now() < until) ++n;
  }
  return n;
}

const Replica& Gateway::pick_replica(FunctionState& fn) {
  const std::vector<Replica>& replicas = fn.route->replicas;
  const std::size_t cursor = fn.cursor++;
  std::size_t healthy = 0;
  for (const auto& replica : replicas) {
    if (!is_quarantined(replica.node)) ++healthy;
  }
  // Everything quarantined: fall back to the full set so traffic keeps
  // probing the replicas rather than failing unroutable.
  if (healthy == 0) return replicas[cursor % replicas.size()];
  std::size_t slot = cursor % healthy;
  for (const auto& replica : replicas) {
    if (is_quarantined(replica.node)) continue;
    if (slot-- == 0) return replica;
  }
  return replicas.back();
}

void Gateway::dispatch(FunctionState& fn, net::BufferView&& payload,
                       InvokeCallback&& callback, std::uint32_t attempts_left,
                       trace::SpanContext ctx, bool limited) {
  Call* call = calls_.take();
  static_cast<CallFields&>(*call) =
      CallFields{.fn = &fn,
                 .started = sim_.now(),
                 .ctx = ctx,
                 .attempts_left = attempts_left,
                 .limited = limited};
  call->payload = std::move(payload);
  call->callback = std::move(callback);
  if (sim_.tracer() != nullptr && ctx.valid()) {
    call->proxy_span = sim_.tracer()->start_span(
        ctx.trace, ctx.parent, "gateway.proxy", sim_.now());
  }
  // Proxy/NAT lookup happens before the request leaves the gateway; the
  // route is re-resolved *after* the lookup so an etcd update landing
  // during the proxy overhead is honored instead of sending to a stale copy.
  sim_.schedule(kProxyOverhead, [this, call] { send_to_worker(call); });
}

void Gateway::park(Call* call) {
  call->payload = {};
  poison_parked(static_cast<CallFields&>(*call));
  calls_.put(call);
}

void Gateway::send_to_worker(Call* call) {
  FunctionState& fn = *call->fn;
  if (sim_.tracer() != nullptr) {
    sim_.tracer()->end_span(call->proxy_span, sim_.now());
  }
  if (fn.route->workers.empty()) {
    // Every worker left the route while the request was in the proxy
    // stage.
    metrics_.counter("gateway_unroutable_total").increment();
    const CallFields done = *call;
    InvokeCallback callback = std::move(call->callback);
    park(call);
    finish(fn, done.limited, done.ctx, callback,
           make_error("gateway: no workers for '" + fn.name + "'"));
    return;
  }
  const Route& route = *fn.route;
  const Replica& replica = pick_replica(fn);
  call->worker = replica.node;
  call->kind = replica.backend_kind;
  // The record keeps its payload view for failover.
  rpc_.call(call->worker, route.workload, call->payload,
            [this, call](Result<proto::RpcResponse> result) {
              on_reply(call, std::move(result));
            },
            call->ctx, route.tenant);
}

void Gateway::on_reply(Call* call, Result<proto::RpcResponse> result) {
  FunctionState& fn = *call->fn;
  if (result.ok()) {
    if (fn.latency == nullptr) {
      fn.latency = &metrics_.sampler("gateway_latency_ns", {{"fn", fn.name}});
    }
    fn.latency->add(static_cast<double>(sim_.now() - call->started));
    Histogram*& rpc_latency = fn.rpc_latency[backend_slot(call->kind)];
    if (rpc_latency == nullptr) {
      rpc_latency =
          &metrics_.histogram("rpc_latency_ns", rpc_labels(fn, call->kind));
    }
    rpc_latency->observe(static_cast<double>(result.value().latency));
  } else {
    metrics_.counter("gateway_failures_total", {{"fn", fn.name}}).increment();
  }
  const CallFields done = *call;
  net::BufferView payload = std::move(call->payload);
  InvokeCallback callback = std::move(call->callback);
  park(call);
  if (!result.ok() && done.attempts_left > 0) {
    // The worker looks dead: sideline it for the cooldown and fail over
    // to the next replica (a health probe or the cooldown lapse brings
    // it back).
    quarantine_worker(done.worker);
    metrics_.counter("gateway_failovers_total", {{"fn", fn.name}})
        .increment();
    dispatch(fn, std::move(payload), std::move(callback),
             done.attempts_left - 1, done.ctx, done.limited);
    return;
  }
  finish(fn, done.limited, done.ctx, callback, std::move(result));
}

std::string Gateway::encode_replicas(WorkloadId workload,
                                     const std::vector<Replica>& replicas,
                                     TenantId tenant) {
  std::ostringstream out;
  out << workload;
  // Default stays implicit so tenant-less routes keep the legacy encoding.
  if (tenant != kDefaultTenant) out << "~" << tenant;
  out << "|";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (i > 0) out << ",";
    out << replicas[i].node;
    // An unknown kind stays implicit so plain routes keep the legacy
    // encoding.
    if (replicas[i].backend_kind != kUnknownBackendKind) {
      out << "@" << static_cast<unsigned>(replicas[i].backend_kind);
    }
  }
  return out.str();
}

Result<Route> Gateway::decode_route(const std::string& encoded) {
  const auto malformed = [&encoded]() {
    return make_error("gateway: malformed route '" + encoded + "'");
  };
  const auto bar = encoded.find('|');
  if (bar == std::string::npos) return malformed();
  Route route;
  std::string head = encoded.substr(0, bar);
  // "<wid>[~<tenant>]" — the tenant extension is optional.
  const auto tilde = head.find('~');
  if (tilde != std::string::npos) {
    const auto tenant = parse_u64(head.substr(tilde + 1));
    if (!tenant || *tenant == 0 || *tenant > 0xFFFFFFFFull) {
      return malformed();
    }
    route.tenant = static_cast<TenantId>(*tenant);
    head = head.substr(0, tilde);
  }
  const auto workload = parse_u64(head);
  if (!workload || *workload > 0xFFFFFFFFull) return malformed();
  route.workload = static_cast<WorkloadId>(*workload);
  std::istringstream stream(encoded.substr(bar + 1));
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) return malformed();
    Replica replica;
    // "<node>[@<kind>]".
    const auto at = token.find('@');
    if (at != std::string::npos) {
      const auto kind = parse_u64(token.substr(at + 1));
      if (!kind || *kind > 0xFF) return malformed();
      replica.backend_kind = static_cast<std::uint8_t>(*kind);
      token = token.substr(0, at);
    }
    const auto node = parse_u64(token);
    if (!node || *node > 0xFFFFFFFFull) return malformed();
    replica.node = static_cast<NodeId>(*node);
    route.workers.push_back(replica.node);
    route.replicas.push_back(replica);
  }
  if (route.replicas.empty()) return malformed();
  return route;
}

void Gateway::apply_route_key(const std::string& key,
                              const std::string& value) {
  constexpr const char* kPrefix = "route/";
  if (key.rfind(kPrefix, 0) != 0) return;
  const std::string name = key.substr(6);
  auto decoded = decode_route(value);
  if (decoded.ok()) set_route(name, std::move(decoded).value());
}

void Gateway::sync_with(kvstore::EtcdStore& etcd) {
  for (const auto& [key, value] : etcd.list("route/")) {
    apply_route_key(key, value);
  }
  etcd.watch("route/", [this](const std::string& key,
                              const std::string& value) {
    apply_route_key(key, value);
  });
}

}  // namespace lnic::framework
