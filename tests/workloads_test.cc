// Tests for the benchmark lambdas: compiled end-to-end through the full
// pipeline and executed directly on the interpreter, verifying the
// actual bytes each lambda produces (web pages, cache values, grayscale
// images) plus the optimizer-relevant structure (duplicate helpers,
// dead code, object placement).
#include <gtest/gtest.h>

#include "compiler/pipeline.h"
#include "microc/interp.h"
#include "microc/verify.h"
#include "workloads/image.h"
#include "common/rng.h"
#include "workloads/lambdas.h"

namespace lnic::workloads {
namespace {

using microc::Invocation;
using microc::Machine;
using microc::ObjectStore;
using microc::Outcome;
using microc::RunState;

compiler::CompileOutput compile_standard(
    compiler::Options options = {},
    Scale scale = {}) {
  WorkloadBundle bundle = make_standard_workloads(scale);
  auto result = compiler::compile(bundle.spec, std::move(bundle.lambdas),
                                  options);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return std::move(result).value();
}

Invocation make_invocation(WorkloadId wid, std::vector<std::uint8_t> body) {
  Invocation inv;
  inv.headers.fields[microc::kHdrWorkloadId] = wid;
  inv.headers.fields[microc::kHdrBodyLen] = body.size();
  auto word_at = [&body](std::size_t i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8 && i * 8 + b < body.size(); ++b) {
      v |= static_cast<std::uint64_t>(body[i * 8 + b]) << (8 * b);
    }
    return v;
  };
  inv.headers.fields[microc::kHdrOp] = word_at(0);
  inv.headers.fields[microc::kHdrKey] = word_at(1);
  inv.headers.fields[microc::kHdrValue] = word_at(2);
  inv.headers.fields[microc::kHdrImageWidth] = word_at(0) & 0xFFFF;
  inv.headers.fields[microc::kHdrImageHeight] = (word_at(0) >> 16) & 0xFFFF;
  inv.body = std::move(body);
  inv.match_data = {1};
  return inv;
}

TEST(Image, TestPatternDeterministic) {
  const Image a = make_test_image(64, 32, 7);
  const Image b = make_test_image(64, 32, 7);
  const Image c = make_test_image(64, 32, 8);
  EXPECT_EQ(a.rgba, b.rgba);
  EXPECT_NE(a.rgba, c.rgba);
  EXPECT_EQ(a.byte_size(), 64u * 32 * 4);
}

TEST(Image, GrayscaleReferenceValues) {
  Image img;
  img.width = 2;
  img.height = 1;
  img.rgba = {255, 255, 255, 255, 255, 0, 0, 255};  // white, red
  const auto gray = to_grayscale(img);
  ASSERT_EQ(gray.size(), 2u);
  EXPECT_EQ(gray[0], (77 * 255 + 150 * 255 + 29 * 255) >> 8);
  EXPECT_EQ(gray[1], (77 * 255) >> 8);
}

TEST(Workloads, WebServerReturnsSelectedPage) {
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  WorkloadBundle bundle = make_standard_workloads();
  for (std::uint64_t op : {0ull, 1ull, 2ull, 3ull, 7ull}) {
    const auto inv = make_invocation(kWebServerId, encode_web_request(op));
    const Outcome out = machine.run(inv);
    ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
    EXPECT_EQ(out.return_value, p4::kReturnForward);
    // Response = 8-byte tag + the page bytes.
    ASSERT_EQ(out.response.size(), 8u + kWebPageBytes);
    const std::string page(out.response.begin() + 8, out.response.end());
    EXPECT_EQ(page, expected_web_page(bundle, op));
  }
}

// The web lambda hashes one of four 1 KiB pages of a global object that
// never changes: after one request per page, every kHash is a memo hit.
TEST(Workloads, WebServerPageHashesHitTheMemo) {
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t op = 0; op < kWebPageCount; ++op) {
      const auto inv = make_invocation(kWebServerId, encode_web_request(op));
      ASSERT_EQ(machine.run(inv).state, RunState::kDone);
    }
  }
  EXPECT_EQ(store.hash_hits(), 2u * kWebPageCount);
}

TEST(Workloads, WebServerCounterPersists) {
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  const auto inv = make_invocation(kWebServerId, encode_web_request(0));
  machine.run(inv);
  machine.run(inv);
  machine.run(inv);
  // The counter lives at offset 0 of "request_counters".
  const auto idx = [&] {
    for (std::size_t i = 0; i < fw.program.objects.size(); ++i) {
      if (fw.program.objects[i].name == "request_counters") return i;
    }
    return static_cast<std::size_t>(-1);
  }();
  ASSERT_NE(idx, static_cast<std::size_t>(-1));
  EXPECT_EQ(store.data(idx)[0], 3);
}

TEST(Workloads, KvGetSuspendsWithRequestedKey) {
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  const auto inv = make_invocation(kKvGetId, encode_kv_request(0xABCDEF));
  Outcome out = machine.run(inv);
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.kind, 0);  // GET
  EXPECT_EQ(out.ext.key, 0xABCDEFu);
  out = machine.resume(0x1234);
  ASSERT_EQ(out.state, RunState::kDone);
  ASSERT_GE(out.response.size(), 8u);
  std::uint64_t reply = 0;
  for (int i = 0; i < 8; ++i) {
    reply |= static_cast<std::uint64_t>(out.response[i]) << (8 * i);
  }
  EXPECT_EQ(reply, 0x1234u);  // raw cached value passes through
}

TEST(Workloads, KvSetCarriesKeyAndValue) {
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  const auto inv = make_invocation(kKvSetId, encode_kv_request(42, 99));
  Outcome out = machine.run(inv);
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.kind, 1);  // SET
  EXPECT_EQ(out.ext.key, 42u);
  EXPECT_EQ(out.ext.value, 99u);
  out = machine.resume(99);
  ASSERT_EQ(out.state, RunState::kDone);
}

class ImageSizeTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ImageSizeTest, TransformerMatchesReference) {
  const auto [w, h] = GetParam();
  auto fw = compile_standard();
  ObjectStore store(fw.program);
  Machine machine(fw.program, microc::CostModel::npu(), &store);
  const Image img = make_test_image(static_cast<std::uint32_t>(w),
                                    static_cast<std::uint32_t>(h), 3);
  const auto inv = make_invocation(
      kImageId, encode_image_request(img.width, img.height, img.rgba));
  const Outcome out = machine.run(inv);
  ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
  EXPECT_EQ(out.response, to_grayscale(img));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ImageSizeTest,
    ::testing::Values(std::pair{16, 16}, std::pair{64, 64},
                      std::pair{100, 30}, std::pair{512, 512}));

TEST(Workloads, OptimizedAndUnoptimizedAgreeOnAllLambdas) {
  auto unopt = compile_standard(compiler::Options::none());
  auto opt = compile_standard();
  const Image img = make_test_image(32, 32, 5);

  const std::vector<std::pair<WorkloadId, std::vector<std::uint8_t>>> cases = {
      {kWebServerId, encode_web_request(2)},
      {kImageId, encode_image_request(img.width, img.height, img.rgba)},
  };
  for (const auto& [wid, body] : cases) {
    ObjectStore s1(unopt.program), s2(opt.program);
    Machine m1(unopt.program, microc::CostModel::npu(), &s1);
    Machine m2(opt.program, microc::CostModel::npu(), &s2);
    const auto inv1 = make_invocation(wid, body);
    const auto inv2 = make_invocation(wid, body);
    const auto o1 = m1.run(inv1);
    const auto o2 = m2.run(inv2);
    ASSERT_EQ(o1.state, RunState::kDone);
    ASSERT_EQ(o2.state, RunState::kDone);
    EXPECT_EQ(o1.response, o2.response) << "wid=" << wid;
    EXPECT_EQ(o1.return_value, o2.return_value);
  }
}

TEST(Workloads, PipelineShrinksEveryStage) {
  WorkloadBundle bundle = make_standard_workloads();
  auto result = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(result.ok());
  const auto& stages = result.value().stages;
  ASSERT_EQ(stages.size(), 4u);
  for (std::size_t i = 1; i < stages.size(); ++i) {
    EXPECT_LT(stages[i].code_words, stages[i - 1].code_words);
  }
  // The optimized binary must fit a 16 K-instruction store (§6.1.2).
  EXPECT_LE(result.value().final_words(), 16384u);
}

TEST(Workloads, CoalescingMergesDuplicatedHelpers) {
  WorkloadBundle b1 = make_standard_workloads();
  auto unopt = compiler::compile(b1.spec, std::move(b1.lambdas),
                                 compiler::Options::none());
  WorkloadBundle b2 = make_standard_workloads();
  auto opt = compiler::compile(b2.spec, std::move(b2.lambdas));
  ASSERT_TRUE(unopt.ok() && opt.ok());
  const auto& p = opt.value().program;
  // The duplicated helper pairs collapse: the first copy survives, the
  // second is gone.
  EXPECT_NE(p.function_index("reply_fmt_web"), microc::Program::kNoFunction);
  EXPECT_EQ(p.function_index("reply_fmt_img"), microc::Program::kNoFunction);
  EXPECT_NE(p.function_index("query_fmt_get"), microc::Program::kNoFunction);
  EXPECT_EQ(p.function_index("query_fmt_set"), microc::Program::kNoFunction);
  EXPECT_LT(p.functions.size(), unopt.value().program.functions.size());
}

TEST(Workloads, StratificationPlacesPaperObjects) {
  auto fw = compile_standard();
  auto region_of = [&](const std::string& name) {
    for (const auto& obj : fw.program.objects) {
      if (obj.name == name) return obj.region;
    }
    return microc::MemRegion::kEmem;
  };
  // §6.4: "the image variable ... is mapped to IMEM, whereas the web
  // server results are mapped to CTM inside the island."
  EXPECT_EQ(region_of("image_buf"), microc::MemRegion::kImem);
  const auto web = region_of("web_content");
  EXPECT_TRUE(web == microc::MemRegion::kCtm ||
              web == microc::MemRegion::kLocal);
}

TEST(Workloads, NicKvStoreSetGetRoundTrip) {
  // §7 extension: GET/SET against the on-NIC hash table.
  auto bundle = make_nic_kv_store(8);
  auto fw = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(fw.ok()) << fw.error().message;
  ObjectStore store(fw.value().program);
  Machine machine(fw.value().program, microc::CostModel::npu(), &store);

  auto call = [&](std::uint64_t op, std::uint64_t key, std::uint64_t value) {
    const auto inv = make_invocation(kNicKvStoreId,
                                     encode_kv_store_request(op, key, value));
    const Outcome out = machine.run(inv);
    EXPECT_EQ(out.state, RunState::kDone) << out.trap_message;
    std::uint64_t reply = 0;
    for (int i = 0; i < 8 && i < (int)out.response.size(); ++i) {
      reply |= static_cast<std::uint64_t>(out.response[i]) << (8 * i);
    }
    return reply;
  };

  EXPECT_EQ(call(0, 42, 0), 0u);       // miss before insert
  EXPECT_EQ(call(1, 42, 777), 777u);   // SET
  EXPECT_EQ(call(0, 42, 0), 777u);     // GET hits (state persists)
  EXPECT_EQ(call(1, 42, 888), 888u);   // overwrite
  EXPECT_EQ(call(0, 42, 0), 888u);
}

TEST(Workloads, NicKvStoreHandlesCollisionsViaProbing) {
  // A tiny 4-slot table forces linear probing; all distinct keys must
  // still be retrievable until the table is truly full.
  auto bundle = make_nic_kv_store(2);  // 4 slots
  auto fw = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(fw.ok());
  ObjectStore store(fw.value().program);
  Machine machine(fw.value().program, microc::CostModel::npu(), &store);
  auto call = [&](std::uint64_t op, std::uint64_t key, std::uint64_t value) {
    const auto inv = make_invocation(kNicKvStoreId,
                                     encode_kv_store_request(op, key, value));
    const Outcome out = machine.run(inv);
    EXPECT_EQ(out.state, RunState::kDone);
    std::uint64_t reply = 0;
    for (int i = 0; i < 8 && i < (int)out.response.size(); ++i) {
      reply |= static_cast<std::uint64_t>(out.response[i]) << (8 * i);
    }
    return reply;
  };
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(call(1, 100 + k, k + 1), k + 1);
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(call(0, 100 + k, 0), k + 1) << "key " << 100 + k;
  }
}

TEST(Workloads, NicKvStoreSweep) {
  auto bundle = make_nic_kv_store(10);
  auto fw = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(fw.ok());
  ObjectStore store(fw.value().program);
  Machine machine(fw.value().program, microc::CostModel::npu(), &store);
  auto call = [&](std::uint64_t op, std::uint64_t key, std::uint64_t value) {
    const auto inv = make_invocation(kNicKvStoreId,
                                     encode_kv_store_request(op, key, value));
    const Outcome out = machine.run(inv);
    std::uint64_t reply = 0;
    for (int i = 0; i < 8 && i < (int)out.response.size(); ++i) {
      reply |= static_cast<std::uint64_t>(out.response[i]) << (8 * i);
    }
    return reply;
  };
  // 500 inserts at <50% load factor, then verify all.
  for (std::uint64_t k = 0; k < 500; ++k) call(1, k * 7919 + 3, k ^ 0xABCD);
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(call(0, k * 7919 + 3, 0), k ^ 0xABCD) << k;
  }
}

TEST(Workloads, StreamAggregatorSlidingWindow) {
  auto bundle = make_stream_aggregator(4);
  auto fw = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(fw.ok()) << fw.error().message;
  ObjectStore store(fw.value().program);
  Machine machine(fw.value().program, microc::CostModel::npu(), &store);

  struct Window {
    std::uint64_t sum, mn, mx, count;
  };
  auto push = [&](std::uint64_t sensor, std::uint64_t sample) {
    const auto inv =
        make_invocation(kStreamId, encode_kv_request(sensor, sample));
    const Outcome out = machine.run(inv);
    EXPECT_EQ(out.state, RunState::kDone) << out.trap_message;
    auto word = [&](int i) {
      std::uint64_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v |= static_cast<std::uint64_t>(out.response[i * 8 + b]) << (8 * b);
      }
      return v;
    };
    return Window{word(0), word(1), word(2), word(3)};
  };

  // Reference model: per-sensor 8-deep ring.
  std::map<std::uint64_t, std::vector<std::uint64_t>> rings;
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t sensor = rng.next_below(16);
    const std::uint64_t sample = rng.next_below(1000) + 1;
    auto& ring = rings[sensor];
    ring.push_back(sample);
    if (ring.size() > 8) ring.erase(ring.begin());
    const Window got = push(sensor, sample);
    std::uint64_t sum = 0, mn = UINT64_MAX, mx = 0;
    for (auto v : ring) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    ASSERT_EQ(got.count, ring.size()) << "iteration " << i;
    ASSERT_EQ(got.sum, sum);
    ASSERT_EQ(got.mn, mn);
    ASSERT_EQ(got.mx, mx);
  }
}

TEST(Workloads, StreamSensorsIsolated) {
  auto bundle = make_stream_aggregator(4);
  auto fw = compiler::compile(bundle.spec, std::move(bundle.lambdas));
  ASSERT_TRUE(fw.ok());
  ObjectStore store(fw.value().program);
  Machine machine(fw.value().program, microc::CostModel::npu(), &store);
  auto push = [&](std::uint64_t sensor, std::uint64_t sample) {
    const auto inv =
        make_invocation(kStreamId, encode_kv_request(sensor, sample));
    const Outcome out = machine.run(inv);
    std::uint64_t sum = 0;
    for (int b = 0; b < 8; ++b) {
      sum |= static_cast<std::uint64_t>(out.response[b]) << (8 * b);
    }
    return sum;
  };
  push(1, 100);
  push(2, 7);
  EXPECT_EQ(push(1, 100), 200u);  // sensor 2's sample did not leak in
  EXPECT_EQ(push(2, 7), 14u);
}

TEST(Workloads, EncodersRoundTrip) {
  const auto web = encode_web_request(3);
  EXPECT_EQ(web[0], 3);
  const auto kv = encode_kv_request(0x1122, 0x3344);
  EXPECT_EQ(kv[8], 0x22);
  EXPECT_EQ(kv[16], 0x44);
  const auto img = encode_image_request(512, 256, {1, 2, 3});
  EXPECT_EQ(img.size(), 8u + 3u);
  EXPECT_EQ(img[0], 0x00);  // 512 & 0xFF
  EXPECT_EQ(img[1], 0x02);  // 512 >> 8
  EXPECT_EQ(img[2], 0x00);  // height low byte (256 & 0xFF)
  EXPECT_EQ(img[3], 0x01);
}

}  // namespace
}  // namespace lnic::workloads
