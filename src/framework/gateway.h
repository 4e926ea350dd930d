// Gateway (Fig. 2/5): proxies user requests to the right workload on the
// right worker. Built on the weakly-consistent RPC client (D3), it
// assigns lambda-header workload IDs, load-balances across worker
// replicas (round robin), tracks per-function latency and
// throughput in the metrics registry, and can keep its routing table
// synchronized with the etcd store the workload manager writes (§6.1.1).
//
// Overload and failure handling:
//  - A per-function concurrency limiter with a bounded admission queue
//    and deadline-based shedding keeps worker queues from growing
//    without bound; excess requests fail fast with a distinct overload
//    error (counted in `gateway_shed_total`).
//  - Transport failures quarantine the worker for a cooldown instead of
//    removing it: quarantined replicas are skipped by the round robin,
//    probed by the HealthChecker, and reinstated automatically on
//    recovery (or when the cooldown lapses).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/pool.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "framework/metrics.h"
#include "kvstore/etcd.h"
#include "net/network.h"
#include "proto/rpc.h"
#include "sim/inline_fn.h"
#include "sim/simulator.h"

namespace lnic::framework {

struct GatewayConfig {
  /// On transport failure (retransmissions exhausted — worker dead),
  /// fail the request over to the next replica up to this many times.
  std::uint32_t failover_attempts = 1;
  /// Per-function concurrency cap; 0 disables the limiter (legacy
  /// behavior: every admitted request dispatches immediately).
  std::uint32_t max_inflight_per_function = 0;
  /// Bounded admission queue used once the limiter is saturated;
  /// arrivals beyond it are shed immediately.
  std::size_t max_queue_depth = 64;
  /// Queued requests older than this are shed (deadline-based shedding).
  SimDuration queue_deadline = milliseconds(50);
  proto::RpcConfig rpc;
};

/// Marker for replicas whose backend kind is not recorded (legacy routes,
/// hand-registered workers). Values below it mirror backends::BackendKind
/// without pulling the backend layer into the gateway's dependency set.
constexpr std::uint8_t kUnknownBackendKind = 0xFF;

/// One worker of a replica set. The placement layer records the backend
/// kind each replica runs on.
struct Replica {
  NodeId node = kInvalidNode;
  std::uint8_t backend_kind = kUnknownBackendKind;

  friend bool operator==(const Replica&, const Replica&) = default;
};

struct Route {
  WorkloadId workload = kInvalidWorkload;
  /// Tenant namespace the function belongs to (kDefaultTenant for
  /// single-tenant legacy routes). Stamped into every request's lambda
  /// header and added as a `tenant=` metric label.
  TenantId tenant = kDefaultTenant;
  /// Flat node list, one entry per replica (kept in sync with `replicas`
  /// for callers that only care about where requests go).
  std::vector<NodeId> workers;
  /// The set the dispatcher actually consults, in round-robin order.
  std::vector<Replica> replicas;
};

/// Token-bucket rate limit, the gateway's DDoS guard (§7: "any malicious
/// attempt to trigger the lambdas will be blocked by the gateway").
struct RateLimit {
  double requests_per_second = 0.0;  // 0 = unlimited
  double burst = 1.0;                // bucket capacity
};

/// Room for a caller's reply closure in place. The largest on the
/// request path is the cluster benchmark's: four references, a 56-byte
/// call record and a loadgen::CompletionFn, 128 bytes. Larger closures
/// take one heap cell per call.
constexpr std::size_t kInvokeCallbackCapacity = 128;
using InvokeCallback = sim::InlineFn<void(Result<proto::RpcResponse>),
                                     kInvokeCallbackCapacity>;

class Gateway {
 public:
  Gateway(sim::Simulator& sim, net::Network& network, GatewayConfig config = {});

  NodeId node() const { return rpc_.node(); }

  /// Registers (or replaces) a function route. All replicas get an
  /// unknown backend kind.
  void register_function(const std::string& name, WorkloadId workload,
                         std::vector<NodeId> workers);

  /// Registers (or replaces) a function route as a replica set (the
  /// placement layer's entry point). Named distinctly because a
  /// braced node list would be ambiguous against the overload above.
  /// `tenant` places the route in a tenant namespace: requests carry the
  /// id in their lambda header and per-function metrics gain a
  /// `tenant=` label (the default keeps legacy series names unchanged).
  void register_replicas(const std::string& name, WorkloadId workload,
                         std::vector<Replica> replicas,
                         TenantId tenant = kDefaultTenant);

  /// Allocates (idempotently) a tenant id for a named tenant. Ids start
  /// at 1; kDefaultTenant (0) is the implicit single-tenant namespace.
  TenantId register_tenant(const std::string& name);
  /// Human-readable label for a tenant id: its registered name, or
  /// "tenant-<id>" for ids registered elsewhere (e.g. mirrored routes).
  std::string tenant_label(TenantId tenant) const;
  /// Metric labels for a function: {fn=name} plus {tenant=...} when the
  /// route lives in a tenant namespace. The autoscaler reads the same
  /// series the gateway writes through this helper.
  Labels metric_labels(const std::string& name) const;

  /// Installs a per-function token-bucket limit; excess requests fail
  /// fast with a throttle error (and count in the metrics).
  void set_rate_limit(const std::string& name, RateLimit limit);
  bool has_function(const std::string& name) const {
    return route(name) != nullptr;
  }
  const Route* route(const std::string& name) const;

  /// Invokes a function by name; the callback receives the response, a
  /// transport error after failovers are exhausted, or an overload error
  /// if the request was shed.
  void invoke(const std::string& name, net::BufferView payload,
              InvokeCallback callback);

  /// Drops a worker from every route (explicit operator action; failure
  /// handling uses quarantine_worker instead).
  void remove_worker(NodeId worker);

  /// Sidelines a worker for a two-second cooldown: it stays in every
  /// route but the dispatcher skips it while quarantined. Re-quarantining
  /// extends the cooldown.
  void quarantine_worker(NodeId worker);
  /// Puts a quarantined worker back in the rotation (health probe
  /// succeeded, or operator action).
  void reinstate_worker(NodeId worker);
  bool is_quarantined(NodeId worker) const;
  std::size_t quarantined_count() const;

  /// Mirrors routes from etcd: keys "route/<name>" with value
  /// "<wid>|<replica>,<replica>,...". Applies current entries and watches
  /// for changes (the Watch Service of Fig. 5).
  void sync_with(kvstore::EtcdStore& etcd);

  /// Serialization helpers for the etcd route encoding. A replica token
  /// is "<node>", optionally extended with "@<kind>" — routes without
  /// kinds encode as bare node lists ("7|1,2,3").
  /// Tenant routes extend the workload field with "~<tenant>"
  /// ("7~2|1,2,3").
  static std::string encode_replicas(WorkloadId workload,
                                     const std::vector<Replica>& replicas,
                                     TenantId tenant = kDefaultTenant);
  static Result<Route> decode_route(const std::string& encoded);

  MetricsRegistry& metrics() { return metrics_; }
  const Sampler& latency(const std::string& name) {
    return metrics_.sampler("gateway_latency_ns", {{"fn", name}});
  }
  proto::RpcClient& rpc() { return rpc_; }

 private:
  struct Bucket {
    RateLimit limit;
    double tokens = 0.0;
    SimTime refilled_at = 0;
  };

  /// A request waiting for a limiter slot.
  struct Queued {
    std::uint64_t id = 0;
    net::BufferView payload;
    InvokeCallback callback;
    SimTime enqueued_at = 0;
    trace::SpanContext ctx;  // ctx.parent: the request's root span
    trace::SpanId queue_span = trace::kInvalidSpan;
  };

  /// Everything the gateway keeps about one function name. Entries are
  /// created by the first registration or rate limit and never erased,
  /// and map nodes never move, so in-flight closures hold a pointer.
  ///
  /// The metric handles point at registry series (map nodes that never
  /// move either). Each is bound on first use, so a series appears in
  /// render() exactly when it is first written; the two whose labels
  /// carry the tenant are unbound whenever that label changes.
  struct FunctionState {
    std::string name;
    std::optional<Route> route;  // unset: only a rate limit is known
    std::size_t cursor = 0;      // round-robin position
    Bucket bucket;
    // Concurrency limiter (used when max_inflight_per_function > 0).
    std::uint32_t inflight = 0;
    std::deque<Queued> queue;
    Counter* requests = nullptr;      // gateway_requests_total{fn[,tenant]}
    Sampler* latency = nullptr;       // gateway_latency_ns{fn}
    Sampler* queue_depth = nullptr;   // gateway_queue_depth{fn}
    /// rpc_latency_ns{backend,fn[,tenant]}, one per backend label.
    std::array<Histogram*, 4> rpc_latency{};

    void unbind_tenant_series() {
      requests = nullptr;
      rpc_latency.fill(nullptr);
    }
  };

  /// The plain fields of a Call: reset when the record is taken,
  /// poisoned while it is parked (asserts-on builds).
  struct CallFields {
    FunctionState* fn = nullptr;
    SimTime started = 0;     // dispatch time: the latency clock's start
    trace::SpanContext ctx;  // ctx.parent: the request's root span
    trace::SpanId proxy_span = trace::kInvalidSpan;
    std::uint32_t attempts_left = 0;  // failovers still allowed
    NodeId worker = kInvalidNode;     // the replica picked
    std::uint8_t kind = kUnknownBackendKind;
    bool limited = false;  // holds a limiter slot until it completes
  };

  /// One dispatch of an invoke(): taken from calls_ when the proxy
  /// stage starts and parked again when the RPC completes, before the
  /// caller's callback runs, so a callback that invokes again gets a
  /// fresh record. The proxy event and the RPC completion hold only
  /// (this, record). A failover re-dispatches through a new record.
  struct Call : CallFields {
    net::BufferView payload;  // kept for failover: a view, not a copy
    InvokeCallback callback;
  };

  const FunctionState* find_function(const std::string& name) const;
  /// The entry for `name`, created on first use.
  FunctionState& intern(const std::string& name);
  /// Installs a route, unbinding tenant-labelled handles if the tenant
  /// changes.
  void set_route(const std::string& name, Route route);
  Labels labels_of(const FunctionState& fn) const;
  /// labels_of plus the backend label of an rpc_latency_ns series.
  Labels rpc_labels(const FunctionState& fn, std::uint8_t kind) const;
  void apply_route_key(const std::string& key, const std::string& value);
  bool admit(FunctionState& fn);  // token-bucket check
  void dispatch(FunctionState& fn, net::BufferView&& payload,
                InvokeCallback&& callback, std::uint32_t attempts_left,
                trace::SpanContext ctx, bool limited);
  /// Route resolution + replica pick + rpc send; runs after the proxy
  /// delay so route updates landing mid-flight take effect.
  void send_to_worker(Call* call);
  /// The RPC's completion: metrics, then failover or finish().
  void on_reply(Call* call, Result<proto::RpcResponse> result);
  /// Parks a record whose payload and callback were moved out.
  void park(Call* call);
  /// Ends a request: frees its limiter slot, closes its root span, then
  /// runs the caller's callback.
  void finish(FunctionState& fn, bool limited, const trace::SpanContext& ctx,
              InvokeCallback& callback, Result<proto::RpcResponse> result);
  /// Round robin over the replicas that are not quarantined, in route
  /// order.
  const Replica& pick_replica(FunctionState& fn);
  /// Limiter entry: dispatch now or queue/shed.
  void submit(FunctionState& fn, net::BufferView&& payload,
              InvokeCallback&& callback, trace::SpanContext ctx);
  /// Takes a limiter slot and dispatches; the slot frees on completion.
  void start_limited(FunctionState& fn, net::BufferView&& payload,
                     InvokeCallback&& callback, trace::SpanContext ctx);
  void on_complete(FunctionState& fn);
  /// Fails a request as overloaded; ends its gateway.queue span, if it
  /// waited in the queue, annotated with `reason`.
  void shed(FunctionState& fn, InvokeCallback& callback,
            const trace::SpanContext& ctx, const char* reason,
            trace::SpanId queue_span = trace::kInvalidSpan);
  /// Asserts-on builds: each bound metric handle of `fn` still names the
  /// series its current labels address. Run wherever labels can change.
  void check_bound_handles(const FunctionState& fn);
  void expire_queued(FunctionState& fn, std::uint64_t queued_id);

  sim::Simulator& sim_;
  GatewayConfig config_;
  proto::RpcClient rpc_;
  std::map<std::string, FunctionState> functions_;
  std::map<NodeId, SimTime> quarantined_until_;
  std::map<std::string, TenantId> tenant_ids_;
  std::map<TenantId, std::string> tenant_names_;
  TenantId next_tenant_ = 1;
  std::uint64_t next_queued_id_ = 1;
  MetricsRegistry metrics_;
  Pool<Call> calls_;
};

}  // namespace lnic::framework
