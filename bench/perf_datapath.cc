// Wall-clock throughput and byte-copy accounting of the packet datapath.
//
// Two scenarios:
//  1. Fragmented RPC echo — an RpcClient sends 64 KiB bodies to an echo
//     node; each request fragments into ~47 RDMA-write packets, the echo
//     reassembles them with coalesce() and fragments the body back.
//     Reports wall-clock packets/sec plus copy_stats(): bytes physically
//     copied vs bytes handed off as buffer views. The pre-buffer datapath
//     copied the payload at every one of those handoffs, so
//     `baseline_bytes_copied` (= copied + shared) is what the same run
//     used to memcpy, and `copy_reduction_x` is the measured saving.
//  2. End-to-end cluster — open-loop load through gateway + SmartNIC
//     workers (the supp_traffic_mix topology, shrunk); reports wall-clock
//     simulator events/sec and the same copy accounting over a full
//     gateway/RPC/NIC/KV round trip.
//
// Wall-clock rates vary by machine; the byte counters and packet counts
// are deterministic and are what CI checks.
//
// Usage: perf_datapath [--smoke]   (smoke: fewer rounds, for CI)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "common/buffer.h"
#include "framework/gateway.h"
#include "loadgen/generator.h"
#include "net/network.h"
#include "net/packet.h"
#include "proto/rpc.h"

namespace lnic::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double reduction_x(const CopyStats& s) {
  const double baseline =
      static_cast<double>(s.bytes_copied + s.bytes_shared);
  // A fully zero-copy run has bytes_copied == 0; clamp the denominator
  // so the factor stays finite ("at least this much").
  return baseline / static_cast<double>(s.bytes_copied ? s.bytes_copied : 1);
}

void report_copies(BenchSummary& out, const char* prefix,
                   const CopyStats& s) {
  std::printf("    bytes copied %llu (%llu ops), shared zero-copy %llu "
              "(%llu ops)  ->  %.0fx fewer bytes copied\n",
              static_cast<unsigned long long>(s.bytes_copied),
              static_cast<unsigned long long>(s.copies),
              static_cast<unsigned long long>(s.bytes_shared),
              static_cast<unsigned long long>(s.shares), reduction_x(s));
  out.add(std::string(prefix) + "_bytes_copied",
          static_cast<double>(s.bytes_copied), "bytes");
  out.add(std::string(prefix) + "_bytes_shared",
          static_cast<double>(s.bytes_shared), "bytes");
  out.add(std::string(prefix) + "_baseline_bytes_copied",
          static_cast<double>(s.bytes_copied + s.bytes_shared), "bytes");
  out.add(std::string(prefix) + "_copy_reduction_x", reduction_x(s), "x");
}

/// Reassembles fragmented requests and echoes the body back, the way a
/// worker's RDMA receive path does.
class EchoNode {
 public:
  explicit EchoNode(net::Network& network) : network_(network) {
    node_ = network_.attach([this](const net::Packet& p) { on_packet(p); });
  }

  NodeId node() const { return node_; }

 private:
  struct Reassembly {
    std::vector<net::BufferView> frags;
    std::uint32_t received = 0;
  };

  void on_packet(const net::Packet& p) {
    if (p.kind != net::PacketKind::kRequest &&
        p.kind != net::PacketKind::kRdmaWrite) {
      return;
    }
    Reassembly& re = inflight_[p.lambda.request_id];
    if (re.frags.empty()) re.frags.resize(p.lambda.frag_count);
    re.frags[p.lambda.frag_index] = p.payload;
    if (++re.received < p.lambda.frag_count) return;

    const net::BufferView body = coalesce(re.frags);
    inflight_.erase(p.lambda.request_id);
    net::fragment(node_, p.src, net::PacketKind::kResponse, p.lambda, body,
                  [this](net::Packet f) { network_.send(std::move(f)); });
  }

  net::Network& network_;
  NodeId node_ = 0;
  std::map<RequestId, Reassembly> inflight_;
};

void fragmented_rpc(BenchSummary& out, std::uint64_t rounds) {
  sim::Simulator sim;
  net::Network network(sim);
  EchoNode echo(network);
  proto::RpcClient client(sim, network,
                          proto::RpcConfig{.retransmit_timeout = seconds(10)});

  constexpr std::size_t kBody = 64 * 1024;
  std::uint64_t completed = 0;
  std::uint64_t body_bytes_ok = 0;

  reset_copy_stats();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    // Fresh body per request, adopted into a Buffer with no byte copy —
    // exactly what a producer (gateway or loadgen encoder) does.
    std::vector<std::uint8_t> body(kBody,
                                   static_cast<std::uint8_t>(i & 0xFF));
    client.call(echo.node(), /*workload=*/1, std::move(body),
                [&](Result<proto::RpcResponse> r) {
                  if (r.ok()) {
                    ++completed;
                    body_bytes_ok += r.value().payload.size();
                  }
                });
    sim.run();
  }
  const double wall = seconds_since(t0);
  const CopyStats stats = copy_stats();

  const std::uint64_t frags_per_dir =
      (kBody + net::kMaxPayload - 1) / net::kMaxPayload;
  const std::uint64_t packets = network.packets_sent();
  std::printf("  fragmented-rpc: %llu echoes of %zu KiB (%llu frags each "
              "way), %.0f packets/sec wall-clock\n",
              static_cast<unsigned long long>(completed), kBody / 1024,
              static_cast<unsigned long long>(frags_per_dir),
              static_cast<double>(packets) / wall);
  report_copies(out, "rpc", stats);
  out.add("rpc_completed", static_cast<double>(completed), "requests");
  out.add("rpc_body_bytes_echoed", static_cast<double>(body_bytes_ok),
          "bytes");
  out.add("rpc_packets", static_cast<double>(packets), "packets");
  out.add("rpc_packets_per_sec", static_cast<double>(packets) / wall,
          "packets/s");
}

void cluster_run(BenchSummary& out, SimDuration window) {
  sim::Simulator sim;
  net::Network network(sim);
  kvstore::CacheServer cache(sim, network);

  std::vector<std::unique_ptr<backends::Backend>> workers;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(
        backends::make_backend(backends::BackendKind::kLambdaNic, sim,
                               network));
    workers.back()->set_kv_server(cache.node());
    if (!workers.back()->deploy(workloads::make_standard_workloads()).ok()) {
      std::fprintf(stderr, "perf_datapath: deploy failed\n");
      return;
    }
    nodes.push_back(workers.back()->node());
  }
  sim.run_until(seconds(40));  // firmware flash

  framework::Gateway gateway(sim, network);
  gateway.register_function(loadgen::function_name(0),
                            workloads::kWebServerId, nodes);

  loadgen::LoadGenConfig lg;
  lg.arrivals = loadgen::ArrivalSpec::poisson(4000.0);
  lg.duration = window;
  lg.seed = 17;
  loadgen::LoadGenerator generator(
      sim, lg, loadgen::uniform_functions(1),
      loadgen::gateway_sink(gateway, [](const loadgen::Request& request) {
        return workloads::encode_web_request(request.id & 3);
      }));

  reset_copy_stats();
  const std::uint64_t events_before = sim.events_dispatched();
  const SimTime start = sim.now();
  const auto t0 = Clock::now();
  generator.start();
  sim.run_until(start + window);
  generator.stop();
  sim.run();
  const double wall = seconds_since(t0);
  const std::uint64_t events = sim.events_dispatched() - events_before;
  const CopyStats stats = copy_stats();

  std::printf("  cluster: %llu sim events in %.3f s wall (%.0f events/sec), "
              "%llu packets\n",
              static_cast<unsigned long long>(events), wall,
              static_cast<double>(events) / wall,
              static_cast<unsigned long long>(network.packets_sent()));
  report_copies(out, "cluster", stats);
  out.add("cluster_events", static_cast<double>(events), "events");
  out.add("cluster_events_per_sec", static_cast<double>(events) / wall,
          "events/s");
  out.add("cluster_packets", static_cast<double>(network.packets_sent()),
          "packets");
}

int run(std::uint64_t rounds, SimDuration window) {
  print_header("Perf: datapath byte-copy accounting + wall-clock rates");
  BenchSummary out("perf_datapath");
  fragmented_rpc(out, rounds);
  cluster_run(out, window);
  return 0;
}

}  // namespace
}  // namespace lnic::bench

int main(int argc, char** argv) {
  std::uint64_t rounds = 400;
  lnic::SimDuration window = lnic::seconds(2);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      rounds = 40;
      window = lnic::milliseconds(40);
    }
  }
  return lnic::bench::run(rounds, window);
}
