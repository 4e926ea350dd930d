// Supplementary figure (ours): transactional NIC-resident KV store.
//
// Sweeps the TxnStore (NIC-cached B+-tree over simulated host memory,
// strict 2PL) along the axes the SmartNIC-transactions literature plots:
//
//  1. YCSB A-F x {NO_WAIT, WAIT_DIE} x Zipf {uniform, 0.99} at a fixed
//     NIC node-cache size: abort rate and commit p50/p99 per cell. The
//     read-only mix (C) must never abort; the skewed write mixes must
//     abort strictly more than their uniform twins.
//  2. NIC cache-size sweep {0, 64, 256, 2048 nodes} on YCSB B at Zipf
//     0.99: hit ratio must be 0 at capacity 0 (the host-backend
//     baseline) and monotonically non-decreasing in capacity, with the
//     commit tail shrinking as pages stop crossing PCIe.
//  3. TPC-C-lite new-order x protocol x {1, 8} warehouses: fewer
//     warehouses concentrate district RMWs, so contention (and WAIT_DIE
//     waiting) rises as warehouses shrink.
//
// Load is open-loop Poisson (loadgen::ArrivalSpec) from one client node.
// Results are bit-reproducible for a fixed seed and land in
// BENCH_supp_kv_txn.json for tools/check_perf.py.
// Usage: supp_kv_txn [--smoke]
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "kvstore/txn.h"
#include "kvstore/workload.h"
#include "loadgen/arrival.h"

using namespace lnic;
using namespace lnic::bench;

namespace {

struct Params {
  std::uint64_t ycsb_txns = 2000;
  std::uint64_t tpcc_txns = 800;
  double ycsb_rate_rps = 150000.0;
  double tpcc_rate_rps = 30000.0;
  std::size_t records = 1 << 14;
  std::size_t cache_nodes = 256;
  std::uint64_t seed = 29;
};

/// One store cell: the TxnStore (store node, host memory, RDMA QP) and
/// a client node on one fabric.
struct KvRig {
  sim::Simulator sim;
  net::Network network{sim};
  kvstore::TxnStore store;

  explicit KvRig(const kvstore::TxnStoreConfig& config)
      : store(sim, network, config) {}
};

struct CellResult {
  std::uint64_t committed = 0;      // transactions that reached commit
  std::uint64_t aborted_final = 0;  // retry budget exhausted
  std::uint64_t abort_attempts = 0; // aborted attempts incl. retries
  double abort_rate = 0.0;          // aborts / (commits + aborts)
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_ratio = 0.0;
  std::uint64_t host_reads = 0;
  std::uint64_t lock_waits = 0;
  // The cell's flight-recorder dump: its simulation is gone by the time
  // a check reads the result.
  std::string anomalies;
};

/// Drives `n_txns` open-loop Poisson transactions from `next()` through
/// the store's networked kKvRequest path and drains the rig.
CellResult run_cell(const Params& params,
                    const kvstore::TxnStoreConfig& config,
                    const std::function<void(kvstore::TxnStore*)>& populate,
                    const std::function<kvstore::TxnRequest()>& next,
                    std::uint64_t n_txns, double rate_rps) {
  KvRig rig(config);
  populate(&rig.store);

  std::map<RequestId, SimTime> sent_at;
  Sampler commit_latency;
  CellResult out;

  const NodeId client = rig.network.attach(
      [&](const net::Packet& p) {
        if (p.kind != net::PacketKind::kKvResponse) return;
        auto it = sent_at.find(p.lambda.request_id);
        if (it == sent_at.end()) return;
        const double latency_ns =
            static_cast<double>(rig.sim.now() - it->second);
        sent_at.erase(it);
        if (!p.payload.empty() &&
            p.payload[0] ==
                static_cast<std::uint8_t>(kvstore::TxnStatus::kCommitted)) {
          commit_latency.add(latency_ns);
          ++out.committed;
        } else {
          ++out.aborted_final;
        }
      });

  auto arrivals = loadgen::make_arrivals(
      loadgen::ArrivalSpec::poisson(rate_rps), params.seed);
  std::uint64_t issued = 0;
  std::function<void()> send_next = [&] {
    if (issued >= n_txns) return;
    net::Packet p;
    p.src = client;
    p.dst = rig.store.node();
    p.kind = net::PacketKind::kKvRequest;
    p.lambda.workload_id = kvstore::TxnStore::kOpTxn;
    p.lambda.request_id = ++issued;
    p.payload = kvstore::TxnStore::encode_txn(next());
    sent_at[p.lambda.request_id] = rig.sim.now();
    rig.network.send(std::move(p));
    rig.sim.schedule(arrivals->next_gap(), send_next);
  };
  rig.sim.schedule(arrivals->next_gap(), send_next);
  rig.sim.run();

  const auto& stats = rig.store.stats();
  out.abort_attempts = stats.aborts;
  const std::uint64_t attempts = stats.commits + stats.aborts;
  out.abort_rate = attempts == 0
                       ? 0.0
                       : static_cast<double>(stats.aborts) /
                             static_cast<double>(attempts);
  out.p50_ms = commit_latency.empty() ? 0.0
                                      : commit_latency.median() / 1e6;
  out.p99_ms = commit_latency.empty() ? 0.0 : commit_latency.p99() / 1e6;
  out.hit_ratio = rig.store.cache_stats().hit_ratio();
  out.host_reads = rig.store.host_stats().reads;
  out.lock_waits = stats.lock_waits;
  out.anomalies = rig.sim.flight_recorder().dump();
  return out;
}

void add_cell(BenchSummary& summary, const std::string& prefix,
              const CellResult& r) {
  summary.add(prefix + "/commits", static_cast<double>(r.committed), "txns");
  summary.add(prefix + "/aborts", static_cast<double>(r.abort_attempts),
              "attempts");
  summary.add(prefix + "/abort_rate", r.abort_rate, "fraction");
  summary.add(prefix + "/p50", r.p50_ms, "ms");
  summary.add(prefix + "/p99", r.p99_ms, "ms");
  summary.add(prefix + "/hit_ratio", r.hit_ratio, "fraction");
}

void print_cell(const std::string& label, const CellResult& r) {
  std::printf(
      "  %-24s commits %6llu  aborts %6llu  rate %5.3f  "
      "p50 %7.3f ms  p99 %7.3f ms  hit %5.3f\n",
      label.c_str(), static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.abort_attempts), r.abort_rate,
      r.p50_ms, r.p99_ms, r.hit_ratio);
}

const char* zipf_label(double s) { return s == 0.0 ? "z00" : "z99"; }

}  // namespace

int main(int argc, char** argv) {
  Params params;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      params.ycsb_txns = 500;
      params.tpcc_txns = 250;
    }
  }

  BenchSummary summary("supp_kv_txn", params.seed);
  const kvstore::LockProtocol protocols[] = {kvstore::LockProtocol::kNoWait,
                                             kvstore::LockProtocol::kWaitDie};

  // ------------------------------------------------ 1. YCSB A-F sweep
  print_header("YCSB A-F x protocol x skew (cache " +
               std::to_string(params.cache_nodes) + " nodes)");
  std::map<std::string, CellResult> ycsb_cells;
  for (const auto proto : protocols) {
    for (const double zipf_s : {0.0, 0.99}) {
      for (const auto mix :
           {kvstore::YcsbMix::kA, kvstore::YcsbMix::kB, kvstore::YcsbMix::kC,
            kvstore::YcsbMix::kD, kvstore::YcsbMix::kE,
            kvstore::YcsbMix::kF}) {
        kvstore::TxnStoreConfig config;
        config.protocol = proto;
        config.nic_cache_nodes = params.cache_nodes;
        kvstore::YcsbConfig wconfig;
        wconfig.mix = mix;
        wconfig.records = params.records;
        wconfig.zipf_s = zipf_s;
        wconfig.seed = params.seed;
        auto workload = std::make_shared<kvstore::YcsbWorkload>(wconfig);
        const CellResult r = run_cell(
            params, config,
            [&](kvstore::TxnStore* store) { workload->populate(store); },
            [workload] { return workload->next(); }, params.ycsb_txns,
            params.ycsb_rate_rps);
        const std::string prefix =
            std::string("ycsb/") + kvstore::to_string(mix) + "/" +
            kvstore::to_string(proto) + "/" + zipf_label(zipf_s);
        ycsb_cells[prefix] = r;
        add_cell(summary, prefix, r);
        print_cell(prefix, r);
        if (r.committed == 0) {
          return bench_fail(prefix + ": no transaction committed",
                            r.anomalies);
        }
        if (mix == kvstore::YcsbMix::kC && r.abort_attempts != 0) {
          return bench_fail(prefix + ": read-only YCSB C aborted transactions",
                            r.anomalies);
        }
      }
    }
  }
  // Contention self-check: the skewed write-heavy mix must conflict
  // strictly more than its uniform twin under both protocols.
  for (const auto proto : protocols) {
    const std::string base = std::string("ycsb/A/") + kvstore::to_string(proto);
    const CellResult& uniform = ycsb_cells[base + "/z00"];
    const CellResult& skewed = ycsb_cells[base + "/z99"];
    if (skewed.abort_rate <= uniform.abort_rate) {
      return bench_fail(base + ": zipf 0.99 abort rate " +
                            std::to_string(skewed.abort_rate) +
                            " not above uniform " +
                            std::to_string(uniform.abort_rate),
                        skewed.anomalies);
    }
  }

  // ---------------------------------------------- 2. NIC cache sweep
  print_header("NIC node-cache sweep (YCSB B, zipf 0.99, NO_WAIT)");
  double last_hit = -1.0;
  for (const std::size_t cache_nodes : {std::size_t{0}, std::size_t{64},
                                        std::size_t{256}, std::size_t{2048}}) {
    kvstore::TxnStoreConfig config;
    config.protocol = kvstore::LockProtocol::kNoWait;
    config.nic_cache_nodes = cache_nodes;
    kvstore::YcsbConfig wconfig;
    wconfig.mix = kvstore::YcsbMix::kB;
    wconfig.records = params.records;
    wconfig.zipf_s = 0.99;
    wconfig.seed = params.seed;
    auto workload = std::make_shared<kvstore::YcsbWorkload>(wconfig);
    const CellResult r = run_cell(
        params, config,
        [&](kvstore::TxnStore* store) { workload->populate(store); },
        [workload] { return workload->next(); }, params.ycsb_txns,
        params.ycsb_rate_rps);
    const std::string prefix = "cache/" + std::to_string(cache_nodes);
    add_cell(summary, prefix, r);
    summary.add(prefix + "/host_reads", static_cast<double>(r.host_reads),
                "reads");
    print_cell(prefix, r);
    if (cache_nodes == 0 && r.hit_ratio != 0.0) {
      return bench_fail("cache/0 hit ratio nonzero — host baseline leaked "
                        "into the NIC cache",
                        r.anomalies);
    }
    if (r.hit_ratio < last_hit) {
      return bench_fail(prefix + ": hit ratio " +
                            std::to_string(r.hit_ratio) +
                            " fell below smaller cache's " +
                            std::to_string(last_hit),
                        r.anomalies);
    }
    last_hit = r.hit_ratio;
  }

  // ------------------------------------------------ 3. TPC-C-lite
  print_header("TPC-C-lite new-order x protocol x warehouses");
  for (const auto proto : protocols) {
    for (const std::uint32_t warehouses : {1u, 8u}) {
      kvstore::TxnStoreConfig config;
      config.protocol = proto;
      config.nic_cache_nodes = params.cache_nodes;
      config.max_retries = 16;  // district hot spot needs headroom
      kvstore::TpccLiteConfig wconfig;
      wconfig.warehouses = warehouses;
      wconfig.seed = params.seed;
      auto workload = std::make_shared<kvstore::TpccLiteWorkload>(wconfig);
      const CellResult r = run_cell(
          params, config,
          [&](kvstore::TxnStore* store) { workload->populate(store); },
          [workload] { return workload->next_order(); }, params.tpcc_txns,
          params.tpcc_rate_rps);
      const std::string prefix = std::string("tpcc/w") +
                                 std::to_string(warehouses) + "/" +
                                 kvstore::to_string(proto);
      add_cell(summary, prefix, r);
      summary.add(prefix + "/lock_waits", static_cast<double>(r.lock_waits),
                  "waits");
      print_cell(prefix, r);
      if (r.committed == 0) {
        return bench_fail(prefix + ": no new-order committed", r.anomalies);
      }
    }
  }

  std::printf(
      "\nAll cells committed work; YCSB C stayed abort-free, skewed "
      "YCSB A out-conflicted uniform under both protocols, and the NIC "
      "cache hit ratio rose monotonically with capacity.\n");
  return 0;
}
