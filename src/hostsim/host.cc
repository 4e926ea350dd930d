#include "hostsim/host.h"

#include <cassert>
#include <functional>

#include "common/logging.h"
#include "proto/invocation.h"

namespace lnic::hostsim {

using microc::Outcome;
using microc::RunState;
using net::Packet;
using net::PacketKind;

namespace {
/// Parallelism of interpreted lambda execution. 1 = CPython GIL.
constexpr std::uint32_t kGilLimit = 1;
/// Cost of the GIL slot switching to a different lambda (register/TLB
/// state, cache refill, interpreter state swap).
constexpr SimDuration kContextSwitch = microseconds(300);
/// Execution cost model (host_python for both baselines).
const microc::CostModel kCost = microc::CostModel::host_python();
/// Multiplicative service jitter (uniform in [1, 1+kJitterFraction]) and
/// the chance of a scheduler/GC hiccup on each execution.
constexpr double kJitterFraction = 0.20;
constexpr double kHiccupProbability = 0.02;
constexpr std::size_t kMaxQueueDepth = 8192;
constexpr std::uint64_t kSeed = 0xB057;
}  // namespace

struct HostServer::Job {
  net::LambdaHeader lambda;
  NodeId reply_to = kInvalidNode;
  microc::Invocation invocation;
  std::shared_ptr<microc::Deployment> image;  // the program it runs on
  std::unique_ptr<microc::Machine> machine;
  std::uint64_t cycles_reported = 0;
  SimTime enqueued = 0;
  bool resumed = false;        // continuing after a KV reply
  std::uint64_t pending_reply = 0;
  SimDuration rx_cost = 0;     // kernel ingress work to charge
  Outcome outcome;             // filled by the GIL stage
  std::uint8_t next_tag = 0;   // queued-stage continuation (Next)
  // Tracing bookkeeping (inert without an attached recorder).
  trace::SpanContext ctx;
  trace::SpanId queue_span = trace::kInvalidSpan;
  trace::SpanId stage_span = trace::kInvalidSpan;  // current kernel/runtime
  trace::SpanId exec_span = trace::kInvalidSpan;   // host.execute (GIL)
  trace::SpanId kv_span = trace::kInvalidSpan;
};

HostServer::~HostServer() = default;

HostServer::HostServer(sim::Simulator& sim, net::Network& network,
                       HostConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      node_(network_.attach([this](const Packet& p) { handle_packet(p); })),
      rng_(kSeed),
      kv_(sim, network, node_, stats_,
          [this](std::unique_ptr<Job> job,
                 std::optional<std::uint64_t> reply) {
            on_kv_reply(std::move(job), reply);
          }) {
  kernel_.capacity = config_.cores;
  runtime_.capacity = config_.serialize_runtime ? 1 : config_.cores;
  gil_.capacity = std::min(kGilLimit, config_.cores);
}

void HostServer::deploy(std::shared_ptr<const microc::Program> program) {
  // Jobs parked on a KV call keep the instance they started on.
  image_ = std::make_shared<microc::Deployment>(std::move(program), kCost);
}

SimDuration HostServer::jittered(SimDuration base) {
  return static_cast<SimDuration>(
      static_cast<double>(base) * (1.0 + rng_.next_double() * kJitterFraction));
}

void HostServer::handle_packet(const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::kRequest:
    case PacketKind::kRdmaWrite:
      if (auto message = reassembly_.add(packet)) {
        handle_request(message->header, std::move(message->body));
      }
      break;
    case PacketKind::kKvResponse:
      kv_.on_reply(packet);
      break;
    default:
      break;
  }
}

void HostServer::handle_request(const Packet& packet, net::BufferView body) {
  if (!image_) {
    ++stats_.requests_dropped;
    return;
  }
  auto job = std::make_unique<Job>();
  job->lambda = packet.lambda;
  job->reply_to = packet.src;
  job->ctx = {packet.lambda.trace_id, packet.lambda.parent_span};
  const std::uint32_t frags =
      std::max<std::uint32_t>(packet.lambda.frag_count, 1);
  job->rx_cost = config_.rx_per_packet * frags;

  proto::fill_invocation(job->invocation, packet.lambda, packet.src,
                         std::move(body));

  admit(std::move(job));
}

void HostServer::admit(std::unique_ptr<Job> job) {
  if (admission_.size() >= kMaxQueueDepth) {
    ++stats_.requests_dropped;
    return;
  }
  job->enqueued = sim_.now();
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && job->ctx.valid()) {
    job->queue_span = tracer->start_span(job->ctx.trace, job->ctx.parent,
                                         "host.queue", sim_.now());
    if (job->lambda.tenant_id != kDefaultTenant) {
      tracer->annotate(job->queue_span, "tenant",
                       std::to_string(job->lambda.tenant_id));
    }
  }
  admission_.push_back(std::move(job));
  try_admit();
}

void HostServer::try_admit() {
  while (active_jobs_ < config_.worker_threads && !admission_.empty()) {
    auto job = std::move(admission_.front());
    admission_.pop_front();
    ++active_jobs_;
    stats_.peak_active_jobs = std::max(stats_.peak_active_jobs, active_jobs_);
    stats_.queue_wait_ns.add(static_cast<double>(sim_.now() - job->enqueued));
    if (sim_.tracer() != nullptr) {
      sim_.tracer()->end_span(job->queue_span, sim_.now());
    }
    job->queue_span = trace::kInvalidSpan;
    const SimDuration rx = jittered(job->rx_cost);
    enter_stage(kernel_, std::move(job), rx, Next::kRuntime);
  }
}

const char* HostServer::stage_span_name(const Stage& stage) const {
  if (&stage == &kernel_) return "host.kernel";
  if (&stage == &runtime_) return "host.runtime";
  return "host.execute";
}

void HostServer::enter_stage(Stage& stage, std::unique_ptr<Job> job,
                             SimDuration service, Next next) {
  if (sim_.tracer() != nullptr && job->ctx.valid() &&
      job->stage_span == trace::kInvalidSpan) {
    // Covers both the stage's queue wait and its service time.
    job->stage_span = sim_.tracer()->start_span(
        job->ctx.trace, job->ctx.parent, stage_span_name(stage), sim_.now());
  }
  if (stage.busy < stage.capacity) {
    ++stage.busy;
    ++busy_units_;
    stats_.busy_time += service;
    // The pending event owns the job, so tearing down the simulator with
    // the job in service frees it.
    sim_.schedule(service,
                  [this, &stage, job = std::move(job), next]() mutable {
                    stage_done(stage, std::move(job), next);
                  });
  } else {
    // The kernel stage serves both ingress (kRuntime / kGil for resumes)
    // and egress (kDone); remember where this job goes next.
    job->next_tag = static_cast<std::uint8_t>(next);
    stage.queue.emplace_back(std::move(job), service);
  }
}

void HostServer::stage_done(Stage& stage, std::unique_ptr<Job> job,
                            Next next) {
  if (sim_.tracer() != nullptr) {
    sim_.tracer()->end_span(job->stage_span, sim_.now());
  }
  job->stage_span = trace::kInvalidSpan;
  // Free the unit (or hand it straight to the next queued item).
  if (!stage.queue.empty()) {
    auto [queued, service] = std::move(stage.queue.front());
    stage.queue.pop_front();
    const Next queued_next = static_cast<Next>(queued->next_tag);
    stats_.busy_time += service;
    sim_.schedule(service, [this, &stage, job = std::move(queued),
                            queued_next]() mutable {
      stage_done(stage, std::move(job), queued_next);
    });
  } else {
    --stage.busy;
    --busy_units_;
  }

  switch (next) {
    case Next::kRuntime:
      enter_stage(runtime_, std::move(job), jittered(config_.per_request),
                  Next::kGil);
      break;
    case Next::kGil:
      run_gil(std::move(job));
      break;
    case Next::kDone:
      finish_job(std::move(job));
      break;
  }
}

void HostServer::run_gil(std::unique_ptr<Job> job) {
  trace::TraceRecorder* tracer = sim_.tracer();
  if (tracer != nullptr && job->ctx.valid() &&
      job->exec_span == trace::kInvalidSpan) {
    // Covers GIL queue wait + context switch + interpreted execution;
    // a KV resume opens a fresh host.execute span.
    job->exec_span = tracer->start_span(job->ctx.trace, job->ctx.parent,
                                        "host.execute", sim_.now());
    if (job->lambda.tenant_id != kDefaultTenant) {
      tracer->annotate(job->exec_span, "tenant",
                       std::to_string(job->lambda.tenant_id));
    }
  }
  // The GIL stage computes its own service time at grant (context switch
  // + interpreted execution), so acquire manually.
  if (gil_.busy < gil_.capacity) {
    ++gil_.busy;
    ++busy_units_;
    SimDuration service = 0;
    if (gil_last_workload_ != job->lambda.workload_id) {
      service += kContextSwitch;
      ++stats_.context_switches;
      gil_last_workload_ = job->lambda.workload_id;
    }
    Outcome outcome;
    if (!job->machine) {
      job->image = image_;
      job->machine = image_->acquire();
      outcome = job->machine->run(job->invocation);
    } else {
      outcome = job->machine->resume(job->pending_reply);
    }
    const std::uint64_t delta = outcome.cycles - job->cycles_reported;
    job->cycles_reported = outcome.cycles;
    SimDuration exec = jittered(kCost.cycles_to_duration(delta));
    if (rng_.next_bool(kHiccupProbability)) {
      exec += static_cast<SimDuration>(rng_.next_below(
          static_cast<std::uint64_t>(std::max<SimDuration>(
              config_.hiccup_max, 1))));
    }
    service += exec;
    stats_.busy_time += service;
    job->outcome = std::move(outcome);
    sim_.schedule(service, [this, owned = std::move(job)]() mutable {
      if (sim_.tracer() != nullptr) {
        sim_.tracer()->end_span(owned->exec_span, sim_.now());
      }
      owned->exec_span = trace::kInvalidSpan;
      // Release the GIL (or pass it to the next queued lambda).
      if (!gil_.queue.empty()) {
        auto [queued, unused] = std::move(gil_.queue.front());
        (void)unused;
        gil_.queue.pop_front();
        --gil_.busy;
        --busy_units_;
        run_gil(std::move(queued));
      } else {
        --gil_.busy;
        --busy_units_;
      }

      if (owned->outcome.state == RunState::kYield) {
        // Blocked on the KV store: keep the service thread, release CPU.
        if (sim_.tracer() != nullptr && owned->ctx.valid()) {
          owned->kv_span = sim_.tracer()->start_span(
              owned->ctx.trace, owned->ctx.parent, "host.kv_wait", sim_.now());
        }
        const microc::ExtRequest ext = owned->outcome.ext;
        kv_.send(kv_.park(std::move(owned), ext));
        return;
      }
      // Egress: kernel tx work for every response fragment.
      const std::uint32_t tx_frags = static_cast<std::uint32_t>(
          owned->outcome.response.empty()
              ? 1
              : (owned->outcome.response.size() + net::kMaxPayload - 1) /
                    net::kMaxPayload);
      enter_stage(kernel_, std::move(owned),
                  jittered(config_.tx_per_packet * tx_frags), Next::kDone);
    });
  } else {
    gil_.queue.emplace_back(std::move(job), 0);
  }
}

void HostServer::on_kv_reply(std::unique_ptr<Job> job,
                             std::optional<std::uint64_t> reply) {
  trace::TraceRecorder* tracer = sim_.tracer();
  if (job->kv_span != trace::kInvalidSpan && tracer != nullptr) {
    if (!reply) tracer->annotate(job->kv_span, "timeout", "true");
    tracer->end_span(job->kv_span, sim_.now());
  }
  job->kv_span = trace::kInvalidSpan;
  if (!reply) {
    // The call failed after every resend: end the request as a trap,
    // which frees its service thread; the gateway's retry runs it again.
    job->machine->abort();
    job->outcome = proto::kv_timeout_trap(job->cycles_reported);
    finish_job(std::move(job));
    return;
  }
  job->pending_reply = *reply;
  job->resumed = true;
  // The reply's kernel rx, then back to the interpreter (fresh GIL
  // acquisition, possibly another context switch).
  enter_stage(kernel_, std::move(job), jittered(config_.rx_per_packet),
              Next::kGil);
}

void HostServer::finish_job(std::unique_ptr<Job> job) {
  assert(active_jobs_ > 0);
  --active_jobs_;
  if (job->image) job->image->release(std::move(job->machine));
  if (job->outcome.state == RunState::kTrap) {
    ++stats_.requests_dropped;
    LNIC_WARN() << "host lambda trap: " << job->outcome.trap_message;
  } else {
    ++stats_.requests_completed;
    net::fragment(node_, job->reply_to, PacketKind::kResponse, job->lambda,
                  net::BufferView(std::move(job->outcome.response)),
                  [this](Packet f) { network_.send(std::move(f)); });
  }
  try_admit();
}

}  // namespace lnic::hostsim
