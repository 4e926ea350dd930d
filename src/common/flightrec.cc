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

std::string FlightRecorder::dump() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "flight recorder: %llu event(s) recorded, last %zu retained\n",
                static_cast<unsigned long long>(recorded()), ring_.size());
  out += line;
  if (ring_.empty()) {
    out += "  (empty: no anomalies recorded)\n";
    return out;
  }
  for (const Event& e : ring_) {
    std::snprintf(line, sizeof(line),
                  "  t=%12.3f ms  %-18s a=%llu b=%llu  %s\n", to_ms(e.time),
                  to_string(e.kind), static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b), e.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace lnic::flightrec
