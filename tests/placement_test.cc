// Tests for the placement layer: per-lambda footprints, bundle
// splitting, and NIC-first placement over mixed NIC/host pools.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backends/backend.h"
#include "compiler/pipeline.h"
#include "framework/placement.h"
#include "kvstore/cache_server.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "workloads/lambdas.h"
#include "workloads/split.h"

namespace lnic::framework {
namespace {

// A pool of live backends in the given kind order.
struct PoolRig {
  sim::Simulator sim;
  net::Network network{sim};
  kvstore::CacheServer cache{sim, network};
  std::vector<std::unique_ptr<backends::Backend>> owned;
  std::vector<backends::Backend*> pool;

  explicit PoolRig(std::vector<backends::BackendKind> kinds) {
    for (auto kind : kinds) {
      owned.push_back(backends::make_backend(kind, sim, network));
      owned.back()->set_kv_server(cache.node());
      pool.push_back(owned.back().get());
    }
  }
};

// A Scale that blows the web server past the 16 K-word instruction
// store while leaving the other three lambdas at their standard size.
workloads::Scale oversize_web_scale() {
  workloads::Scale scale;
  scale.web_mix_rounds = 6000;
  return scale;
}

TEST(Capacity, ReportsNicStoreAndHostHeadroom) {
  PoolRig rig({backends::BackendKind::kLambdaNic,
               backends::BackendKind::kBareMetal});
  const auto nic = rig.pool[0]->capacity();
  EXPECT_TRUE(nic.on_nic);
  EXPECT_EQ(nic.instr_store_words, 16384u);
  EXPECT_GT(nic.memory_bytes, 0u);
  EXPECT_GT(nic.threads, 0u);
  const auto host = rig.pool[1]->capacity();
  EXPECT_FALSE(host.on_nic);
  EXPECT_EQ(host.instr_store_words, backends::Capacity::kUnlimitedWords);
}

TEST(Footprints, StandardBundleFitsOneNicStore) {
  const auto footprints =
      compute_footprints(workloads::make_standard_workloads());
  ASSERT_TRUE(footprints.ok()) << footprints.error().message;
  ASSERT_EQ(footprints.value().size(), 4u);
  std::uint64_t total = 0;
  for (const auto& fp : footprints.value()) {
    EXPECT_GT(fp.code_words, 0u);
    EXPECT_NE(fp.workload, kInvalidWorkload);
    total += fp.code_words;
  }
  // The paper's four-lambda program fits a single 16 K instruction
  // store even when footprints are measured one lambda at a time.
  EXPECT_LE(total, 16384u);
}

TEST(Footprints, OversizeLambdaExceedsStore) {
  const auto footprints = compute_footprints(
      workloads::make_standard_workloads(oversize_web_scale()));
  ASSERT_TRUE(footprints.ok()) << footprints.error().message;
  std::uint64_t web_words = 0;
  for (const auto& fp : footprints.value()) {
    if (fp.name == "web_server") web_words = fp.code_words;
  }
  EXPECT_GT(web_words, 16384u);
}

TEST(NicFirst, HomogeneousPoolReplicatesEverywhere) {
  PoolRig rig({backends::BackendKind::kLambdaNic,
               backends::BackendKind::kLambdaNic,
               backends::BackendKind::kLambdaNic,
               backends::BackendKind::kLambdaNic});
  const auto bundle = workloads::make_standard_workloads();
  const auto footprints = compute_footprints(bundle);
  ASSERT_TRUE(footprints.ok());
  const auto plan =
      place_nic_first(snapshot_pool(rig.pool), footprints.value());
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  for (const auto& [fn, assignments] : plan.value().functions) {
    ASSERT_EQ(assignments.size(), 4u) << fn;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(assignments[i], (PlacementAssignment{i})) << fn;
    }
  }
  // Determinism: the same inputs yield the identical plan.
  const auto again =
      place_nic_first(snapshot_pool(rig.pool), footprints.value());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plan.value().functions, again.value().functions);
}

TEST(NicFirst, OversizeLambdaSpillsToHostsOnly) {
  PoolRig rig({backends::BackendKind::kLambdaNic,
               backends::BackendKind::kLambdaNic,
               backends::BackendKind::kBareMetal,
               backends::BackendKind::kContainer});
  const auto footprints = compute_footprints(
      workloads::make_standard_workloads(oversize_web_scale()));
  ASSERT_TRUE(footprints.ok());
  const auto plan =
      place_nic_first(snapshot_pool(rig.pool), footprints.value());
  ASSERT_TRUE(plan.ok()) << plan.error().message;
  // The oversize web server lands on the two hosts, nothing else.
  EXPECT_FALSE(plan.value().assigns("web_server", 0));
  EXPECT_FALSE(plan.value().assigns("web_server", 1));
  EXPECT_TRUE(plan.value().assigns("web_server", 2));
  EXPECT_TRUE(plan.value().assigns("web_server", 3));
  // The standard-size lambdas stay NIC-resident.
  for (const char* fn :
       {"kv_client_get", "kv_client_set", "image_transformer"}) {
    EXPECT_TRUE(plan.value().assigns(fn, 0)) << fn;
    EXPECT_TRUE(plan.value().assigns(fn, 1)) << fn;
    EXPECT_FALSE(plan.value().assigns(fn, 2)) << fn;
    EXPECT_FALSE(plan.value().assigns(fn, 3)) << fn;
  }
}

TEST(NicFirst, OversizeLambdaWithoutHostsFails) {
  PoolRig rig({backends::BackendKind::kLambdaNic,
               backends::BackendKind::kLambdaNic});
  const auto footprints = compute_footprints(
      workloads::make_standard_workloads(oversize_web_scale()));
  ASSERT_TRUE(footprints.ok());
  const auto plan =
      place_nic_first(snapshot_pool(rig.pool), footprints.value());
  EXPECT_FALSE(plan.ok());
}

TEST(SplitBundle, FullActionSetIsIdentity) {
  const auto bundle = workloads::make_standard_workloads();
  const auto split =
      workloads::split_bundle(bundle, workloads::bundle_actions(bundle));
  EXPECT_EQ(split.lambdas.functions.size(), bundle.lambdas.functions.size());
  EXPECT_EQ(split.lambdas.objects.size(), bundle.lambdas.objects.size());
  EXPECT_EQ(split.spec.tables.size(), bundle.spec.tables.size());
}

TEST(SplitBundle, SubsetKeepsCalleesAndCompiles) {
  const auto bundle = workloads::make_standard_workloads();
  auto sub = workloads::split_bundle(bundle, {"web_server"});
  EXPECT_LT(sub.lambdas.functions.size(), bundle.lambdas.functions.size());
  EXPECT_NE(sub.lambdas.function_index("web_server"),
            microc::Program::kNoFunction);
  EXPECT_EQ(sub.lambdas.function_index("image_transformer"),
            microc::Program::kNoFunction);
  auto compiled = compiler::compile(sub.spec, std::move(sub.lambdas));
  ASSERT_TRUE(compiled.ok()) << compiled.error().message;
  EXPECT_LE(compiled.value().final_words(), 16384u);
}

}  // namespace
}  // namespace lnic::framework
