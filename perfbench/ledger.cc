#include "perfbench/ledger.h"

#include <algorithm>

#include "microc/interp.h"
#include "net/network.h"
#include "proto/invocation.h"
#include "sim/simulator.h"

namespace lnic::perfbench {

namespace {
using Clock = std::chrono::steady_clock;

SimDuration ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
}  // namespace

HostSpans::HostSpans()
    : epoch_(Clock::now()),
      recorder_(1 << 22),
      trace_(recorder_.new_trace()) {}

SimTime HostSpans::now() const { return ns_between(epoch_, Clock::now()); }

trace::SpanId HostSpans::open(const std::string& name, trace::SpanId parent) {
  return recorder_.start_span(trace_, parent, name, now());
}

void HostSpans::add(const std::string& name, trace::SpanId parent,
                    SimTime start) {
  recorder_.end_span(recorder_.start_span(trace_, parent, name, start), now());
}

std::map<std::string, SimDuration> HostSpans::totals() const {
  std::map<std::string, SimDuration> totals;
  for (const trace::Span& span : recorder_.spans()) {
    if (!span.open) totals[span.name] += span.end - span.start;
  }
  return totals;
}

MicrocReplay replay_microc(const Workload& workload,
                           const microc::Program& program, NodeId src,
                           const std::vector<Call>& warm,
                           const std::vector<Call>& calls,
                           const std::vector<std::uint32_t>& executions) {
  MicrocReplay out;
  microc::ObjectStore globals(program);
  const microc::CostModel npu = microc::CostModel::npu();
  RequestId next_id = 1;

  auto execute = [&](const Call& call, bool counted) {
    net::LambdaHeader header;
    header.workload_id = workload.alias_workload(call.fn);
    header.request_id = next_id++;
    const auto t0 = Clock::now();
    // The machine keeps a pointer to the invocation across resume().
    const microc::Invocation invocation =
        proto::build_invocation(header, src, call.payload);
    microc::Machine machine(program, npu, &globals);
    microc::Outcome outcome = machine.run(invocation);
    bool ext_ok = true;
    while (outcome.state == microc::RunState::kYield) {
      // Both KV clients query the request's own key; the cache answered
      // a GET with the loaded value and a SET with the written one.
      ext_ok = ext_ok && outcome.ext.key == call.key;
      outcome = machine.resume(call.value);
    }
    const auto t1 = Clock::now();
    if (!counted) return;
    ++out.executions;
    out.instructions += outcome.instructions;
    out.cycles += outcome.cycles;
    out.wall_ns += ns_between(t0, t1);
    if (outcome.state != microc::RunState::kDone || !ext_ok ||
        !workload.check(call, BufferView(std::move(outcome.response)))) {
      ++out.wrong;
    }
  };

  for (const Call& call : warm) execute(call, false);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    for (std::uint32_t n = 0; n < executions[i]; ++n) execute(calls[i], true);
  }
  return out;
}

std::vector<std::uint32_t> executions_per_call(
    const net::PacketTracer& tracer, NodeId gateway,
    const Workload& workload, const std::vector<Call>& calls) {
  if (tracer.evicted() != 0 || calls.empty()) return {};
  std::map<RequestId, std::pair<WorkloadId, std::uint32_t>> seen;
  for (const net::PacketTracer::Record& r : tracer.records()) {
    if (r.src != gateway || r.dropped || r.frag_index != 0) continue;
    if (r.kind != net::PacketKind::kRequest &&
        r.kind != net::PacketKind::kRdmaWrite) {
      continue;
    }
    auto& entry = seen[r.request];
    entry.first = r.workload;
    ++entry.second;
  }
  if (seen.size() != calls.size()) return {};
  const RequestId base = seen.begin()->first;
  std::vector<std::uint32_t> executions(calls.size(), 0);
  for (const auto& [id, entry] : seen) {
    const std::size_t i = id - base;
    if (i >= calls.size() ||
        entry.first != workload.alias_workload(calls[i].fn)) {
      return {};
    }
    executions[i] = entry.second;
  }
  return executions;
}

NetReplay replay_net(const net::PacketTracer& tracer, NodeId gateway) {
  constexpr Bytes kHeaders = net::kFrameOverhead + net::kLambdaHeaderSize;
  sim::Simulator sim;
  net::Network network(sim);
  std::uint64_t received = 0;
  const auto sink = [&received](const net::Packet&) { ++received; };
  const NodeId a = network.attach(sink);
  const NodeId b = network.attach(sink);
  Bytes largest = 0;
  for (const auto& r : tracer.records()) {
    largest = std::max(largest, r.wire_bytes);
  }
  const BufferView bytes(std::vector<std::uint8_t>(largest, 0x5A));

  NetReplay out;
  const auto t0 = Clock::now();
  for (const net::PacketTracer::Record& r : tracer.records()) {
    if (r.dropped) continue;
    net::Packet packet;
    packet.src = r.src == gateway ? a : b;
    packet.dst = r.src == gateway ? b : a;
    packet.kind = r.kind;
    packet.lambda.workload_id = r.workload;
    packet.lambda.request_id = r.request;
    packet.lambda.frag_index = r.frag_index;
    packet.lambda.frag_count = r.frag_count;
    packet.payload = bytes.slice(0, r.wire_bytes - kHeaders);
    network.send(std::move(packet));
    // Deliver in batches so the event queue stays small, as the
    // fabric's own queues do under the recorded load.
    if (++out.packets % 256 == 0) sim.run();
  }
  sim.run();
  out.wall_ns = ns_between(t0, Clock::now());
  if (received != out.packets) out.packets = 0;  // lost in replay: unusable
  return out;
}

}  // namespace lnic::perfbench
