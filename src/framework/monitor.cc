#include "framework/monitor.h"

#include <string>

#include "microc/ir.h"

namespace lnic::framework {

void Monitor::scrape() {
  ++scrapes_;
  const SimTime now = sim_.now();
  for (const auto& [name, backend] : backends_) {
    metrics_.gauge("backend_completed", {{"node", name}}) =
        static_cast<double>(backend->completed());
    const auto usage = backend->usage(now);
    metrics_.gauge("backend_host_cpu_pct", {{"node", name}}) =
        usage.host_cpu_percent;
    metrics_.gauge("backend_host_mem_mib", {{"node", name}}) =
        to_mib(usage.host_memory);
    metrics_.gauge("backend_nic_mem_mib", {{"node", name}}) =
        to_mib(usage.nic_memory);

    // NPU-grid view for NIC-resident workers: occupancy of the thread
    // grid, the dispatch queue, the instruction store and every level of
    // the memory hierarchy, attributable per lambda when the profiler
    // is enabled.
    auto* nic_backend = dynamic_cast<backends::LambdaNicBackend*>(backend);
    if (nic_backend == nullptr) continue;
    const auto& nic = nic_backend->nic();
    metrics_.gauge("nic_busy_threads", {{"node", name}}) =
        static_cast<double>(nic.busy_threads());
    metrics_.gauge("nic_queue_depth", {{"node", name}}) =
        static_cast<double>(nic.queue_depth());
    metrics_.gauge("nic_instr_store_words", {{"node", name}}) =
        static_cast<double>(nic.instr_words_used());
    for (const auto region :
         {microc::MemRegion::kLocal, microc::MemRegion::kCtm,
          microc::MemRegion::kImem, microc::MemRegion::kEmem}) {
      metrics_.gauge("nic_mem_bytes",
                     {{"node", name}, {"region", microc::to_string(region)}}) =
          static_cast<double>(nic.region_bytes_used(region));
    }
    // Per-tenant footprint and quota gauges: what each tenant's lambdas
    // occupy on the deployed firmware, and the admission ceilings the
    // card enforces at deploy/hot-swap time.
    static constexpr microc::MemRegion kRegions[] = {
        microc::MemRegion::kLocal, microc::MemRegion::kCtm,
        microc::MemRegion::kImem, microc::MemRegion::kEmem};
    for (const auto& [tenant, tenant_usage] : nic.tenant_usages()) {
      const std::string tid = std::to_string(tenant);
      metrics_.gauge("nic_tenant_instr_words",
                     {{"node", name}, {"tenant", tid}}) =
          static_cast<double>(tenant_usage.instr_words);
      for (const auto region : kRegions) {
        metrics_.gauge("nic_tenant_mem_bytes",
                       {{"node", name},
                        {"tenant", tid},
                        {"region", microc::to_string(region)}}) =
            static_cast<double>(
                tenant_usage.region_bytes[static_cast<int>(region)]);
      }
    }
    for (const auto& [tenant, quota] : nic.tenant_quotas()) {
      const std::string tid = std::to_string(tenant);
      metrics_.gauge("nic_tenant_quota_instr_words",
                     {{"node", name}, {"tenant", tid}}) =
          static_cast<double>(quota.instr_store_words);
      metrics_.gauge("nic_tenant_quota_ctm_bytes",
                     {{"node", name}, {"tenant", tid}}) =
          static_cast<double>(quota.ctm_bytes);
      metrics_.gauge("nic_tenant_quota_imem_bytes",
                     {{"node", name}, {"tenant", tid}}) =
          static_cast<double>(quota.imem_bytes);
      metrics_.gauge("nic_tenant_quota_emem_bytes",
                     {{"node", name}, {"tenant", tid}}) =
          static_cast<double>(quota.emem_bytes);
    }

    const auto* profiler = nic.profiler();
    if (profiler == nullptr) continue;
    metrics_.gauge("nic_grid_utilization", {{"node", name}}) =
        profiler->grid_utilization(now);
    metrics_.gauge("nic_queue_peak_depth", {{"node", name}}) =
        static_cast<double>(profiler->peak_queue_depth());
    for (const auto& [workload, busy] : profiler->lambda_busy()) {
      const std::string wid = std::to_string(workload);
      metrics_.gauge("nic_lambda_busy_ns", {{"node", name}, {"lambda", wid}}) =
          static_cast<double>(busy);
      metrics_.gauge("nic_lambda_dispatches",
                     {{"node", name}, {"lambda", wid}}) =
          static_cast<double>(profiler->lambda_dispatches(workload));
    }
  }
  if (packet_tracer_ != nullptr) {
    metrics_.gauge("packet_trace_evicted_total") =
        static_cast<double>(packet_tracer_->evicted());
  }

  // Transactional-store counters: op mix, commit/abort outcomes keyed
  // by the store's locking protocol, and NIC node-cache effectiveness.
  for (const auto& [name, store] : kv_stores_) {
    const auto& s = store->stats();
    const std::string proto = kvstore::to_string(store->protocol());
    metrics_.gauge("kv_ops_total", {{"node", name}, {"op", "get"}}) =
        static_cast<double>(s.gets);
    metrics_.gauge("kv_ops_total", {{"node", name}, {"op", "set"}}) =
        static_cast<double>(s.sets);
    metrics_.gauge("kv_ops_total", {{"node", name}, {"op", "txn"}}) =
        static_cast<double>(s.txns);
    metrics_.gauge("kv_txn_commits_total",
                   {{"node", name}, {"proto", proto}}) =
        static_cast<double>(s.commits);
    metrics_.gauge("kv_txn_aborts_total", {{"node", name}, {"proto", proto}}) =
        static_cast<double>(s.aborts);
    metrics_.gauge("kv_txn_retries_exhausted_total",
                   {{"node", name}, {"proto", proto}}) =
        static_cast<double>(s.retries_exhausted);
    const auto& c = store->cache_stats();
    metrics_.gauge("kv_cache_hit_ratio", {{"node", name}}) = c.hit_ratio();
    metrics_.gauge("kv_cache_hits", {{"node", name}}) =
        static_cast<double>(c.hits);
    metrics_.gauge("kv_cache_misses", {{"node", name}}) =
        static_cast<double>(c.misses);
    metrics_.gauge("kv_cache_evictions", {{"node", name}}) =
        static_cast<double>(c.evictions);
    metrics_.gauge("kv_cache_invalidations", {{"node", name}}) =
        static_cast<double>(c.invalidations);
  }

  metrics_.gauge("monitor_scrapes") = static_cast<double>(scrapes_);
}

}  // namespace lnic::framework
