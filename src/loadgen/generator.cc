#include "loadgen/generator.h"

#include <string_view>
#include <unordered_map>
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
  handles_.resize(profiles_.size());
}

LoadGenerator::LoadGenerator(sim::Simulator& sim, LoadGenConfig config,
                             std::vector<TraceEvent> replay, Sink sink)
    : sim_(sim),
      config_(config),
      replay_(std::move(replay)),
      sink_(std::move(sink)),
      payload_rng_(config.seed ^ kPayloadStream),
      slo_(config.slo) {
  std::unordered_map<std::string_view, std::uint32_t> slot_of;
  replay_slots_.reserve(replay_.size());
  for (const TraceEvent& event : replay_) {
    const auto next = static_cast<std::uint32_t>(slot_of.size());
    replay_slots_.push_back(slot_of.try_emplace(event.function, next)
                                .first->second);
  }
  handles_.resize(slot_of.size());
}

LoadGenerator::~LoadGenerator() { set_metrics(nullptr); }

void LoadGenerator::set_metrics(framework::MetricsRegistry* registry) {
  if (metrics_ != nullptr) {
    metrics_->collect();  // the last values stay behind as plain gauges
    metrics_->remove_collector(this);
  }
  metrics_ = registry;
  last_event_.reset();
  inflight_gauge_ = nullptr;
  offered_gauge_ = nullptr;
  for (auto& [name, fn] : functions_) fn.rps_gauge = nullptr;
  if (metrics_ != nullptr) metrics_->add_collector(this, [this] { collect(); });
}

void LoadGenerator::start() {
  // A restart keeps the old window's rates until an event past the new
  // start replaces them.
  if (metrics_ != nullptr) metrics_->collect();
  stop();  // drops a pending arrival: next_ holds one request only
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
  std::size_t slot = 0;
  if (arrivals_) {
    const SimDuration gap = arrivals_->next_gap();
    if (gap >= kSimTimeMax - sim_.now()) {  // no arrival before time ends
      offering_ = false;
      return;
    }
    next = sim_.now() + gap;
    slot = zipf_->sample();
    const FunctionProfile& profile = profiles_[slot];
    next_.function = profile.name;
    next_.payload_bytes = profile.payload.sample(payload_rng_);
  } else {
    if (replay_next_ >= replay_.size()) {
      offering_ = false;
      return;
    }
    slot = replay_slots_[replay_next_];
    const TraceEvent& event = replay_[replay_next_++];
    next = started_at_ + event.at;
    if (next < sim_.now()) next = sim_.now();
    next_.function = event.function;
    next_.payload_bytes = event.payload_bytes;
  }
  if (config_.duration > 0 && next > started_at_ + config_.duration) {
    offering_ = false;
    return;
  }
  next_.intended = next;
  pending_ = sim_.schedule_at(next, [this, slot] {
    pending_ = sim::kInvalidEvent;
    on_arrival(slot);
  });
}

void LoadGenerator::on_arrival(std::size_t slot) {
  next_.id = offered_++;
  Function*& fn = handles_[slot];
  if (fn == nullptr) {
    fn = &functions_[next_.function];
    fn->slo = &slo_.stats(next_.function);
  }
  SloTracker::FnStats& stats = *fn->slo;
  slo_.on_offered(stats);
  last_event_ = sim_.now();

  // Dispatch before arming so event creation order matches the
  // hand-rolled PeriodicTimer drivers this replaces (callback first,
  // then re-arm) — ports stay bit-identical.
  ++inflight_;
  const SimTime intended = next_.intended;
  sink_(next_, [this, &stats, intended](bool ok) {
    --inflight_;
    if (ok) {
      ++completed_;
    } else {
      ++failed_;
    }
    slo_.on_complete(stats, intended, sim_.now(), ok);
    last_event_ = sim_.now();
  });
  arm_next();
}

void LoadGenerator::collect() {
  // Every change to these values comes with an event that sets
  // last_event_, so evaluating them now gives what writing them at each
  // event gave: both series from the first event after attaching, each
  // rate once an event lies past start().
  if (!last_event_) return;
  if (inflight_gauge_ == nullptr) {
    inflight_gauge_ = &metrics_->gauge("loadgen_inflight");
    offered_gauge_ = &metrics_->gauge("loadgen_offered_requests");
  }
  *inflight_gauge_ = static_cast<double>(inflight_);
  *offered_gauge_ = static_cast<double>(offered_);
  const SimDuration elapsed = *last_event_ - started_at_;
  if (elapsed <= 0) return;
  const double window_sec = to_sec(elapsed);
  for (auto& [name, fn] : functions_) {
    if (fn.rps_gauge == nullptr) {
      fn.rps_gauge = &metrics_->gauge("loadgen_offered_rps", {{"fn", name}});
    }
    *fn.rps_gauge = static_cast<double>(fn.slo->offered) / window_sec;
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
