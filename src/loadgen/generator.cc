#include "loadgen/generator.h"

#include <utility>

namespace lnic::loadgen {

namespace {
// Seed-stream separators so arrival, popularity and payload draws are
// independent for one config.seed.
constexpr std::uint64_t kZipfStream = 0x5A69706653656C65ull;
constexpr std::uint64_t kPayloadStream = 0x5061796C6F616453ull;
}  // namespace

std::vector<FunctionProfile> uniform_functions(std::size_t n,
                                               PayloadDist payload) {
  std::vector<FunctionProfile> profiles;
  profiles.reserve(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    profiles.push_back(FunctionProfile{function_name(rank), payload});
  }
  return profiles;
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, LoadGenConfig config,
                             std::vector<FunctionProfile> profiles,
                             Sink sink)
    : sim_(sim),
      config_(config),
      profiles_(std::move(profiles)),
      sink_(std::move(sink)),
      arrivals_(make_arrivals(config.arrivals, config.seed)),
      payload_rng_(config.seed ^ kPayloadStream),
      slo_(config.slo) {
  if (profiles_.empty()) {
    profiles_.push_back(FunctionProfile{function_name(0)});
  }
  zipf_ = std::make_unique<ZipfSelector>(profiles_.size(), config_.zipf_s,
                                         config_.seed ^ kZipfStream);
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, LoadGenConfig config,
                             std::vector<TraceEvent> replay, Sink sink)
    : sim_(sim),
      config_(config),
      replay_(std::move(replay)),
      sink_(std::move(sink)),
      payload_rng_(config.seed ^ kPayloadStream),
      slo_(config.slo) {}

void LoadGenerator::set_metrics(framework::MetricsRegistry* registry) {
  metrics_ = registry;
  // Handles into the previous registry are dropped; the next write binds.
  inflight_gauge_ = nullptr;
  offered_gauge_ = nullptr;
  for (auto& [fn, offered] : offered_by_fn_) offered.rps_gauge = nullptr;
}

void LoadGenerator::start() {
  offering_ = true;
  started_at_ = sim_.now();
  replay_next_ = 0;
  arm_next();
}

void LoadGenerator::stop() {
  offering_ = false;
  if (pending_ != sim::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = sim::kInvalidEvent;
  }
}

void LoadGenerator::arm_next() {
  if (!offering_) return;
  if (config_.max_requests > 0 && offered_ >= config_.max_requests) {
    offering_ = false;
    return;
  }

  SimTime next = 0;
  Request request;
  if (arrivals_) {
    const SimDuration gap = arrivals_->next_gap();
    if (gap >= kSimTimeMax - sim_.now()) {  // no arrival before time ends
      offering_ = false;
      return;
    }
    next = sim_.now() + gap;
    const FunctionProfile& profile = profiles_[zipf_->sample()];
    request.function = profile.name;
    request.payload_bytes = profile.payload.sample(payload_rng_);
  } else {
    if (replay_next_ >= replay_.size()) {
      offering_ = false;
      return;
    }
    const TraceEvent& event = replay_[replay_next_++];
    next = started_at_ + event.at;
    if (next < sim_.now()) next = sim_.now();
    request.function = event.function;
    request.payload_bytes = event.payload_bytes;
  }
  if (config_.duration > 0 && next > started_at_ + config_.duration) {
    offering_ = false;
    return;
  }
  request.intended = next;
  pending_ = sim_.schedule_at(next, [this, request]() mutable {
    pending_ = sim::kInvalidEvent;
    on_arrival(std::move(request));
  });
}

void LoadGenerator::on_arrival(Request request) {
  request.id = offered_++;
  ++offered_by_fn_[request.function].count;
  slo_.on_offered(request.function);
  update_gauges();

  if (config_.max_outstanding > 0 && inflight_ >= config_.max_outstanding) {
    deferred_.push_back(std::move(request));
  } else {
    dispatch(std::move(request));
  }
  // Dispatch before arming so event creation order matches the
  // hand-rolled PeriodicTimer drivers this replaces (callback first,
  // then re-arm) — ports stay bit-identical.
  arm_next();
}

void LoadGenerator::dispatch(Request request) {
  ++inflight_;
  update_gauges();
  const std::string function = request.function;
  const SimTime intended = request.intended;
  const SimTime dispatched = sim_.now();
  sink_(request, [this, function, intended, dispatched](bool ok) {
    --inflight_;
    if (ok) {
      ++completed_;
    } else {
      ++failed_;
    }
    slo_.on_complete(function, intended, dispatched, sim_.now(), ok);
    update_gauges();
    if (!deferred_.empty() && inflight_ < config_.max_outstanding) {
      Request next = std::move(deferred_.front());
      deferred_.pop_front();
      dispatch(std::move(next));
    }
  });
}

void LoadGenerator::update_gauges() {
  if (metrics_ == nullptr) return;
  // Handles are bound on first write, so each series appears when it did
  // with string lookups; registry map nodes never move.
  if (inflight_gauge_ == nullptr) {
    inflight_gauge_ = &metrics_->gauge("loadgen_inflight");
    offered_gauge_ = &metrics_->gauge("loadgen_offered_requests");
  }
  *inflight_gauge_ = static_cast<double>(inflight_);
  *offered_gauge_ = static_cast<double>(offered_);
  const SimDuration elapsed = sim_.now() - started_at_;
  if (elapsed <= 0) return;
  const double window_sec = to_sec(elapsed);
  for (auto& [fn, offered] : offered_by_fn_) {
    if (offered.rps_gauge == nullptr) {
      offered.rps_gauge = &metrics_->gauge("loadgen_offered_rps", {{"fn", fn}});
    }
    *offered.rps_gauge = static_cast<double>(offered.count) / window_sec;
  }
}

SloReport LoadGenerator::report() const {
  return slo_.report(sim_.now() - started_at_);
}

Sink gateway_sink(framework::Gateway& gateway, EncodeFn encode) {
  return [&gateway, encode = std::move(encode)](const Request& request,
                                                CompletionFn done) {
    gateway.invoke(request.function, encode(request),
                   [done = std::move(done)](Result<proto::RpcResponse> r) {
                     done(r.ok());
                   });
  };
}

}  // namespace lnic::loadgen
