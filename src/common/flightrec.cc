#include "common/flightrec.h"

#include <cstdio>

namespace lnic::flightrec {

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kGatewayShed: return "gateway-shed";
    case Kind::kGatewayQuarantine: return "gateway-quarantine";
    case Kind::kQueueDrop: return "queue-drop";
    case Kind::kUndeployDrop: return "undeploy-drop";
    case Kind::kQuotaReject: return "quota-reject";
    case Kind::kRpcTimeout: return "rpc-timeout";
    case Kind::kTxnRetryExhausted: return "txn-retry-exhausted";
    case Kind::kOther: return "other";
  }
  return "other";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(SimTime time, Kind kind, std::uint64_t a,
                            std::uint64_t b, std::string detail) {
  std::lock_guard<std::mutex> lk(mu_);
  ++recorded_;
  if (ring_.size() == capacity_) ring_.pop_front();
  ring_.push_back(Event{time, kind, a, b, std::move(detail)});
}

std::vector<Event> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<Event>(ring_.begin(), ring_.end());
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return recorded_ - ring_.size();
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  recorded_ = 0;
}

std::string FlightRecorder::dump() const {
  std::vector<Event> events = snapshot();
  const std::uint64_t total = recorded();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "flight recorder: %llu event(s) recorded, last %zu retained\n",
                static_cast<unsigned long long>(total), events.size());
  out += line;
  if (events.empty()) {
    out += "  (empty: no anomalies recorded)\n";
    return out;
  }
  for (const Event& e : events) {
    std::snprintf(line, sizeof(line),
                  "  t=%12.3f ms  %-18s a=%llu b=%llu  %s\n", to_ms(e.time),
                  to_string(e.kind), static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b), e.detail.c_str());
    out += line;
  }
  return out;
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace lnic::flightrec
