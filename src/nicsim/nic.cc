#include "nicsim/nic.h"

#include <cassert>
#include <utility>

#include "common/logging.h"
#include "proto/invocation.h"

namespace lnic::nicsim {

using microc::Outcome;
using microc::RunState;
using net::Packet;
using net::PacketKind;

// Receivers drop a message of more than kMaxFragments fragments.
static_assert(microc::kMaxResponse <= net::kMaxFragments * net::kMaxPayload);

namespace {
/// Service-time variability: shared-memory (CTM/EMEM) arbitration
/// jitter plus rare DMA-contention spikes. Far smaller than host-side
/// noise — the source of λ-NIC's tight tails.
constexpr double kJitterFraction = 0.05;
constexpr double kHiccupProbability = 0.01;
constexpr SimDuration kHiccupMax = microseconds(25);
constexpr std::uint64_t kSeed = 0x5EED;  // every card draws the same stream
}  // namespace

/// The plain fields of a Flight: reset when a flight is taken from the
/// pool, poisoned while it is parked (asserts-on builds).
struct SmartNic::FlightFields {
  net::LambdaHeader lambda;
  std::uint32_t sched_class = 0;  // DRR class (tenant or workload id)
  NodeId reply_to = kInvalidNode;
  SimTime arrived = 0;
  SimTime dispatched = 0;
  std::uint64_t cycles_reported = 0;  // cycles accounted so far
  Bytes staged_bytes = 0;             // EMEM staging held until completion
  // Tracing/profiling bookkeeping (inert unless a tracer/profiler is on).
  trace::SpanContext ctx;
  trace::SpanId parse_span = trace::kInvalidSpan;
  trace::SpanId queue_span = trace::kInvalidSpan;
  trace::SpanId exec_span = trace::kInvalidSpan;
  trace::SpanId kv_span = trace::kInvalidSpan;
  std::int32_t thread_slot = -1;
};

/// One request in flight on an NPU thread (or waiting in the dispatch
/// queue, or in the parse stage). Owns the invocation (the Machine keeps
/// a pointer into it) and the suspended Machine across external-call
/// round trips. Flights come from flights_ and go back there when the
/// request ends; the invocation is filled in place, so its match_data
/// keeps its storage.
struct SmartNic::Flight : FlightFields {
  microc::Invocation invocation;
  std::shared_ptr<microc::Deployment> image;  // the firmware it runs on
  std::unique_ptr<microc::Machine> machine;
  Outcome outcome;  // the final run's, set when the reply is scheduled
};

SmartNic::~SmartNic() = default;

SmartNic::SmartNic(sim::Simulator& sim, net::Network& network,
                   NicConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      node_(network_.attach([this](const Packet& p) { handle_packet(p); })),
      rng_(kSeed),
      kv_(sim, network, node_, stats_,
          [this](Flight* flight, std::optional<std::uint64_t> reply) {
            on_kv_reply(flight, reply);
          }) {}

bool SmartNic::down() const { return sim_.now() < down_until_; }

void SmartNic::enable_profiler(std::size_t max_samples) {
  profiler_ = std::make_unique<NpuProfiler>(
      config_.lambda_threads(), config_.threads_per_core, max_samples);
  slot_busy_.assign(config_.lambda_threads(), false);
}

std::uint32_t SmartNic::sched_class_of(const net::LambdaHeader& header) const {
  if (header.tenant_id != kDefaultTenant) return header.tenant_id;
  const auto it = workload_tenants_.find(header.workload_id);
  if (it != workload_tenants_.end()) return it->second;
  return header.workload_id;
}

void SmartNic::set_tenant(WorkloadId workload, TenantId tenant) {
  if (tenant == kDefaultTenant) {
    workload_tenants_.erase(workload);
  } else {
    workload_tenants_[workload] = tenant;
  }
}

TenantId SmartNic::tenant_of(WorkloadId workload) const {
  const auto it = workload_tenants_.find(workload);
  return it == workload_tenants_.end() ? kDefaultTenant : it->second;
}

void SmartNic::set_tenant_quota(TenantId tenant, TenantQuota quota) {
  tenant_quotas_[tenant] = quota;
}

const TenantUsage* SmartNic::tenant_usage(TenantId tenant) const {
  const auto it = tenant_usage_.find(tenant);
  return it == tenant_usage_.end() ? nullptr : &it->second;
}

void SmartNic::undeploy_tenant(TenantId tenant) {
  const auto queue = wfq_queues_.find(tenant);
  if (queue != wfq_queues_.end()) {
    if (!queue->second.empty()) {
      sim_.flight_recorder().record(
          sim_.now(), flightrec::Kind::kUndeployDrop, tenant,
          queue->second.size(),
          "tenant " + std::to_string(tenant) + " undeployed with " +
              std::to_string(queue->second.size()) + " queued request(s)");
    }
    for (Flight* flight : queue->second) {
      ++stats_.requests_dropped_undeploy;
      inflight_bytes_ -= flight->staged_bytes;
      --queued_;
      park(flight);
    }
    wfq_queues_.erase(queue);
  }
  wfq_deficit_.erase(tenant);
  weights_.erase(tenant);
  for (auto it = workload_tenants_.begin(); it != workload_tenants_.end();) {
    if (it->second == tenant) {
      it = workload_tenants_.erase(it);
    } else {
      ++it;
    }
  }
  tenant_quotas_.erase(tenant);
  tenant_usage_.erase(tenant);
}

std::map<TenantId, TenantUsage> SmartNic::compute_tenant_usage(
    const microc::Program& program) const {
  std::map<TenantId, TenantUsage> usage;
  for (const auto& [wid, entry_fn] : program.lambda_entries) {
    const auto assigned = workload_tenants_.find(wid);
    if (assigned == workload_tenants_.end()) continue;  // tenant-less lambda
    TenantUsage& u = usage[assigned->second];
    // Depth-first closure over kCall edges from the lambda's entry; each
    // reachable function and every object it references is charged to
    // the tenant (helpers shared across tenants are double-charged — the
    // conservative reading of a per-tenant store budget).
    std::vector<bool> seen_fn(program.functions.size(), false);
    std::vector<bool> seen_obj(program.objects.size(), false);
    std::vector<std::uint32_t> stack = {entry_fn};
    while (!stack.empty()) {
      const std::uint32_t fn = stack.back();
      stack.pop_back();
      if (fn >= program.functions.size() || seen_fn[fn]) continue;
      seen_fn[fn] = true;
      for (const auto& block : program.functions[fn].blocks) {
        for (const auto& in : block.instrs) {
          u.instr_words += microc::lowered_size(in, program);
          if (in.op == microc::Opcode::kCall) {
            stack.push_back(static_cast<std::uint32_t>(in.imm));
          }
          const bool touches_obj =
              microc::is_memory_op(in.op) ||
              in.op == microc::Opcode::kRespMem ||
              in.op == microc::Opcode::kMemCpy ||
              in.op == microc::Opcode::kGrayscale ||
              in.op == microc::Opcode::kHash ||
              in.op == microc::Opcode::kBodyCopy;
          if (!touches_obj) continue;
          const auto charge = [&](std::uint16_t obj) {
            if (obj >= program.objects.size() || seen_obj[obj]) return;
            seen_obj[obj] = true;
            const auto& object = program.objects[obj];
            u.region_bytes[static_cast<int>(object.region)] += object.size;
          };
          charge(in.obj);
          // obj2 only carries an operand for the two-object copy ops.
          if (in.op == microc::Opcode::kMemCpy ||
              in.op == microc::Opcode::kGrayscale) {
            charge(in.obj2);
          }
        }
      }
    }
  }
  return usage;
}

Status SmartNic::deploy(
    std::shared_ptr<const compiler::CompileOutput> firmware) {
  if (firmware->final_words() > config_.instr_store_words) {
    return make_error("deploy: firmware exceeds instruction store");
  }
  // Quota admission runs before any state changes: a rejected deploy —
  // first-time or hot swap — must leave the running firmware serving.
  auto usage = compute_tenant_usage(firmware->program);
  for (const auto& [tenant, u] : usage) {
    const auto q = tenant_quotas_.find(tenant);
    if (q == tenant_quotas_.end()) continue;
    const TenantQuota& quota = q->second;
    if (quota.instr_store_words > 0 &&
        u.instr_words > quota.instr_store_words) {
      sim_.flight_recorder().record(
          sim_.now(), flightrec::Kind::kQuotaReject, tenant, u.instr_words,
          "tenant " + std::to_string(tenant) +
              " over instruction-store quota");
      return make_error("deploy: tenant " + std::to_string(tenant) +
                        " exceeds instruction-store quota");
    }
    const Bytes limits[4] = {0, quota.ctm_bytes, quota.imem_bytes,
                             quota.emem_bytes};
    for (int region = 1; region < 4; ++region) {
      if (limits[region] > 0 && u.region_bytes[region] > limits[region]) {
        sim_.flight_recorder().record(
            sim_.now(), flightrec::Kind::kQuotaReject, tenant,
            u.region_bytes[region],
            "tenant " + std::to_string(tenant) + " over " +
                std::string(microc::to_string(
                    static_cast<microc::MemRegion>(region))) +
                " quota");
        return make_error(
            "deploy: tenant " + std::to_string(tenant) + " exceeds " +
            microc::to_string(static_cast<microc::MemRegion>(region)) +
            " quota");
      }
    }
  }
  tenant_usage_ = std::move(usage);
  instr_words_used_ = firmware->final_words();
  // Flights parked on a KV call keep the image they started on.
  image_ = std::make_shared<microc::Deployment>(
      std::shared_ptr<const microc::Program>(firmware, &firmware->program),
      microc::CostModel::npu());
  const microc::Program& program = image_->program();
  // Static parse+match cycle estimate for the pipelined mode (§5
  // footnote 4): the parser's field extractions plus the dispatch
  // function's instruction and memory costs.
  {
    const microc::CostModel npu = microc::CostModel::npu();
    std::uint64_t cycles =
        npu.hdr_cycles * program.parsed_fields.size();
    const auto& dispatch = program.functions[program.dispatch_function];
    for (const auto& block : dispatch.blocks) {
      for (const auto& in : block.instrs) {
        cycles += npu.alu_cycles;
        if (microc::is_memory_op(in.op)) {
          cycles += npu.region_read[static_cast<int>(
              program.objects[in.obj].region)];
        }
      }
    }
    // A hit scans roughly half the match chain on average.
    parse_match_cycles_ = cycles / 2;
  }
  // Firmware artifact: lowered words (NFP instruction words are 8 B) plus
  // data-section bytes for initialized objects.
  firmware_bytes_ = firmware->stages.back().code_words * 8;
  for (const auto& obj : program.objects) {
    firmware_bytes_ += obj.initial_data.size();
  }
  if (!config_.allow_hot_swap) {
    // §7: current NICs cannot hot swap; the card is down while loading.
    down_until_ = sim_.now() + kFirmwareLoadTime;
  }
  return Status::ok_status();
}

Bytes SmartNic::memory_in_use() const {
  const Bytes globals = image_ ? image_->globals().total_bytes() : 0;
  return firmware_bytes_ + globals + inflight_bytes_;
}

Bytes SmartNic::region_bytes_used(microc::MemRegion region) const {
  Bytes bytes = 0;
  if (image_) bytes += microc::region_bytes(image_->program(), region);
  if (region == microc::MemRegion::kEmem) bytes += inflight_bytes_;
  return bytes;
}

void SmartNic::handle_packet(const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kRequest:
      if (packet.lambda.frag_count > 1) {
        handle_rdma_fragment(packet);
      } else {
        handle_request(packet, packet.payload);
      }
      break;
    case PacketKind::kRdmaWrite:
      handle_rdma_fragment(packet);
      break;
    case PacketKind::kKvResponse:
      kv_.on_reply(packet);
      break;
    default:
      break;  // responses/control are not addressed to the NIC data path
  }
}

void SmartNic::handle_request(const Packet& packet, net::BufferView body) {
  if (!image_ || down()) {
    ++stats_.requests_dropped_down;
    return;
  }
  Flight* flight = flights_.take();
  static_cast<FlightFields&>(*flight) = FlightFields{};
  flight->lambda = packet.lambda;
  flight->reply_to = packet.src;
  flight->arrived = sim_.now();
  flight->ctx = {packet.lambda.trace_id, packet.lambda.parent_span};
  // Multi-packet bodies were already staged into EMEM fragment by
  // fragment (handle_rdma_fragment); the flight now owns those bytes and
  // releases them at completion.
  flight->staged_bytes = body.size() > net::kMaxPayload ? body.size() : 0;

  proto::fill_invocation(flight->invocation, packet.lambda, packet.src,
                         std::move(body));

  if (config_.pipeline_stages) {
    enter_parse_stage(flight);
  } else {
    enqueue(flight);
  }
}

void SmartNic::park(Flight* flight) {
  flight->invocation.body = {};
  flight->image.reset();
  flight->machine.reset();
  flight->outcome = {};
  poison_parked(static_cast<FlightFields&>(*flight));
  poison_parked(flight->invocation.headers);
  flights_.put(flight);
}

void SmartNic::enter_parse_stage(Flight* flight) {
  if (busy_parse_threads_ >= config_.parse_threads()) {
    if (parse_queue_.size() >= config_.max_queue_depth) {
      ++stats_.requests_dropped_queue;
      inflight_bytes_ -= flight->staged_bytes;
      park(flight);
      return;
    }
    parse_queue_.push_back(flight);
    return;
  }
  ++busy_parse_threads_;
  if (sim_.tracer() != nullptr && flight->ctx.valid()) {
    flight->parse_span = sim_.tracer()->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.parse", sim_.now());
  }
  const SimDuration service =
      microc::CostModel::npu().cycles_to_duration(parse_match_cycles_);
  sim_.schedule(service, [this, flight] {
    if (sim_.tracer() != nullptr) {
      sim_.tracer()->end_span(flight->parse_span, sim_.now());
    }
    enqueue(flight);
    release_parse_thread();
  });
}

void SmartNic::release_parse_thread() {
  --busy_parse_threads_;
  if (!parse_queue_.empty()) {
    Flight* next = parse_queue_.front();
    parse_queue_.pop_front();
    enter_parse_stage(next);
  }
}

void SmartNic::handle_rdma_fragment(const Packet& packet) {
  if (!image_ || down()) {
    ++stats_.requests_dropped_down;
    return;
  }
  auto added = net::Reassembler::Added::kDropped;
  auto message = reassembly_.add(packet, &added);
  if (added == net::Reassembler::Added::kDropped) return;
  // The RDMA write lands this fragment directly in EMEM (D3).
  inflight_bytes_ += packet.payload.size();
  stats_.peak_inflight_bytes =
      std::max(stats_.peak_inflight_bytes, inflight_bytes_);
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && packet.lambda.trace_id != trace::kInvalidTrace) {
    const auto key = std::make_pair(packet.src, packet.lambda.request_id);
    if (added == net::Reassembler::Added::kFirst) {
      const trace::SpanId span = tracer->start_span(
          packet.lambda.trace_id, packet.lambda.parent_span,
          "nic.reassemble", sim_.now());
      tracer->annotate(span, "fragments",
                       std::to_string(packet.lambda.frag_count));
      reassemble_spans_[key] = span;
    }
    if (message) {
      auto open = reassemble_spans_.extract(key);
      if (!open.empty()) tracer->end_span(open.mapped(), sim_.now());
    }
  }
  if (!message) return;
  // Last fragment landed: reorder/assemble in EMEM and fire the event
  // RPC that triggers the lambda (D3).
  handle_request(message->header, std::move(message->body));
}

void SmartNic::enqueue(Flight* flight) {
  if (queued_ >= config_.max_queue_depth) {
    ++stats_.requests_dropped_queue;
    inflight_bytes_ -= flight->staged_bytes;
    sim_.flight_recorder().record(
        sim_.now(), flightrec::Kind::kQueueDrop,
        sched_class_of(flight->lambda), queued_,
        "dispatch queue full, workload " +
            std::to_string(flight->lambda.workload_id));
    park(flight);
    return;
  }
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && flight->ctx.valid()) {
    flight->queue_span = tracer->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.queue", sim_.now());
    const TenantId tenant = flight->lambda.tenant_id != kDefaultTenant
                                ? flight->lambda.tenant_id
                                : tenant_of(flight->lambda.workload_id);
    if (tenant != kDefaultTenant) {
      tracer->annotate(flight->queue_span, "tenant", std::to_string(tenant));
    }
  }
  if (config_.dispatch == DispatchPolicy::kWfq) {
    flight->sched_class = sched_class_of(flight->lambda);
    wfq_queues_[flight->sched_class].push_back(flight);
  } else {
    fifo_.push_back(flight);
  }
  ++queued_;
  if (profiler_) profiler_->on_queue_depth(sim_.now(), queued_);
  try_dispatch();
}

SmartNic::Flight* SmartNic::pop_next() {
  if (config_.dispatch != DispatchPolicy::kWfq) {
    if (fifo_.empty()) return nullptr;
    Flight* flight = fifo_.front();
    fifo_.pop_front();
    --queued_;
    return flight;
  }
  // Deficit round robin across per-class (tenant, or tenant-less
  // workload) queues: each pass grants every backlogged class credit
  // proportional to its weight.
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& [cls, queue] : wfq_queues_) {
      if (queue.empty()) continue;
      auto& deficit = wfq_deficit_[cls];
      if (deficit >= 1) {
        deficit -= 1;
        Flight* flight = queue.front();
        queue.pop_front();
        --queued_;
        // Textbook DRR: a class that drains its queue forfeits unused
        // credit. Carrying it over would let a returning class burst
        // ahead of peers that stayed backlogged the whole time.
        if (queue.empty()) deficit = 0;
        return flight;
      }
    }
    // No class had credit: top everything up and retry once.
    bool any = false;
    for (auto& [cls, queue] : wfq_queues_) {
      if (queue.empty()) continue;
      any = true;
      const auto it = weights_.find(cls);
      wfq_deficit_[cls] += it == weights_.end() ? 1 : it->second;
    }
    if (!any) return nullptr;
  }
  return nullptr;
}

void SmartNic::try_dispatch() {
  while (busy_threads_ < config_.lambda_threads() && queued_ > 0) {
    Flight* flight = pop_next();
    if (flight == nullptr) return;
    ++busy_threads_;
    flight->dispatched = sim_.now();
    stats_.queue_wait_ns.add(
        static_cast<double>(flight->dispatched - flight->arrived));
    if (sim_.tracer() != nullptr) {
      sim_.tracer()->end_span(flight->queue_span, sim_.now());
    }
    flight->queue_span = trace::kInvalidSpan;
    if (profiler_) {
      // Attribution only: pick the lowest free thread slot. The real
      // scheduler is anonymous (a busy counter), so this adds naming
      // without touching dispatch order or timing.
      for (std::size_t s = 0; s < slot_busy_.size(); ++s) {
        if (!slot_busy_[s]) {
          slot_busy_[s] = true;
          flight->thread_slot = static_cast<std::int32_t>(s);
          break;
        }
      }
      if (flight->thread_slot >= 0) {
        profiler_->on_dispatch(static_cast<std::uint32_t>(flight->thread_slot),
                               flight->lambda.workload_id, sim_.now());
      }
      profiler_->on_queue_depth(sim_.now(), queued_);
    }
    start_execution(flight);
  }
}

void SmartNic::start_execution(Flight* flight) {
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && flight->ctx.valid()) {
    flight->exec_span = tracer->start_span(
        flight->ctx.trace, flight->ctx.parent, "nic.execute", sim_.now());
    tracer->annotate(flight->exec_span, "workload",
                     std::to_string(flight->lambda.workload_id));
    const TenantId tenant = flight->lambda.tenant_id != kDefaultTenant
                                ? flight->lambda.tenant_id
                                : tenant_of(flight->lambda.workload_id);
    if (tenant != kDefaultTenant) {
      tracer->annotate(flight->exec_span, "tenant", std::to_string(tenant));
    }
  }
  flight->image = image_;
  flight->machine = image_->acquire();
  Outcome outcome = flight->machine->run(flight->invocation);
  continue_flight(flight, std::move(outcome));
}

void SmartNic::continue_flight(Flight* flight, Outcome outcome) {
  std::uint64_t delta = outcome.cycles - flight->cycles_reported;
  // Pipelined mode already charged the parse+match share up front.
  if (config_.pipeline_stages && flight->cycles_reported == 0) {
    delta -= std::min(delta, parse_match_cycles_);
  }
  flight->cycles_reported = outcome.cycles;
  SimDuration service = microc::CostModel::npu().cycles_to_duration(delta);
  // Shared-memory arbitration jitter + rare DMA-contention spikes.
  service = static_cast<SimDuration>(
      static_cast<double>(service) *
      (1.0 + rng_.next_double() * kJitterFraction));
  if (rng_.next_bool(kHiccupProbability)) {
    service += static_cast<SimDuration>(
        rng_.next_below(static_cast<std::uint64_t>(kHiccupMax)));
  }

  if (outcome.state == RunState::kYield) {
    // The thread blocks (run to completion) while the KV RPC is in
    // flight; send the request after the compute burst that produced it.
    const RequestId token = kv_.park(flight, outcome.ext);
    sim_.schedule(service, [this, token, flight] {
      if (sim_.tracer() != nullptr && flight->ctx.valid()) {
        flight->kv_span = sim_.tracer()->start_span(
            flight->ctx.trace, flight->exec_span, "nic.kv_wait", sim_.now());
      }
      kv_.send(token);
    });
    return;
  }

  // Done or trapped: hold the thread for the compute burst, then reply.
  // The outcome rides in the flight.
  flight->outcome = std::move(outcome);
  sim_.schedule(service, [this, flight] { finish_flight(flight); });
}

void SmartNic::on_kv_reply(Flight* flight,
                           std::optional<std::uint64_t> reply) {
  trace::TraceRecorder* tracer = sim_.tracer();
  if (flight->kv_span != trace::kInvalidSpan && tracer != nullptr) {
    if (!reply) tracer->annotate(flight->kv_span, "timeout", "true");
    tracer->end_span(flight->kv_span, sim_.now());
  }
  flight->kv_span = trace::kInvalidSpan;
  if (!reply) {
    // The call failed after every resend: end the request as a trap,
    // which frees the thread; the gateway's retry runs it again.
    flight->machine->abort();
    flight->outcome = proto::kv_timeout_trap(flight->cycles_reported);
    finish_flight(flight);
    return;
  }
  Outcome outcome = flight->machine->resume(*reply);
  continue_flight(flight, std::move(outcome));
}

void SmartNic::finish_flight(Flight* flight) {
  Outcome& outcome = flight->outcome;
  flight->image->release(std::move(flight->machine));
  inflight_bytes_ -= flight->staged_bytes;
  stats_.service_cycles.add(static_cast<double>(outcome.cycles));
  trace::TraceRecorder* tracer = sim_.tracer();
  if (flight->exec_span != trace::kInvalidSpan && tracer != nullptr) {
    tracer->annotate(flight->exec_span, "cycles",
                     std::to_string(outcome.cycles));
    tracer->end_span(flight->exec_span, sim_.now());
  }
  if (profiler_ && flight->thread_slot >= 0) {
    profiler_->on_release(static_cast<std::uint32_t>(flight->thread_slot),
                          sim_.now());
    slot_busy_[static_cast<std::size_t>(flight->thread_slot)] = false;
  }

  if (outcome.state == RunState::kTrap) {
    ++stats_.traps;
    LNIC_WARN() << "lambda trap: " << outcome.trap_message;
  } else if (outcome.return_value == 0xFFFF) {
    ++stats_.requests_to_host;  // send_pkt_to_host path
  } else {
    ++stats_.requests_completed;
    if (config_.dispatch == DispatchPolicy::kWfq) {
      ++stats_.completed_by_class[flight->sched_class];
    }
    // Adopt the response vector into one buffer; fragments are slices.
    net::fragment(node_, flight->reply_to, PacketKind::kResponse,
                  flight->lambda, net::BufferView(std::move(outcome.response)),
                  [this](Packet f) { network_.send(std::move(f)); });
  }
  park(flight);
  release_thread();
}

void SmartNic::release_thread() {
  assert(busy_threads_ > 0);
  --busy_threads_;
  try_dispatch();
}

}  // namespace lnic::nicsim
