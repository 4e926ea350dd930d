// Tests for the static isolation check plus a randomized differential
// suite: random straight-line programs must behave identically before
// and after every combination of the whole-program passes compile()
// runs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/dce.h"
#include "compiler/isolation.h"
#include "compiler/pipeline.h"
#include "compiler/stratify.h"
#include "microc/builder.h"
#include "microc/frontend.h"
#include "microc/interp.h"
#include "microc/verify.h"
#include "workloads/lambdas.h"

namespace lnic::compiler {
namespace {

using microc::Invocation;
using microc::Machine;
using microc::ObjectStore;
using microc::Outcome;
using microc::Program;
using microc::ProgramBuilder;
using microc::RunState;

Outcome run_fn(const Program& p, std::size_t fn) {
  ObjectStore store(p);
  Machine m(p, microc::CostModel::npu(), &store);
  Invocation inv;
  return m.run_function(fn, inv);
}

// -------------------------------------------------------------- isolation

TEST(Isolation, AcceptsInBoundsConstantAccesses) {
  auto program = microc::compile_microc(R"(
    global u8 buf[16];
    int f() { store8(buf, 8, 1); return load8(buf, 0); }
  )");
  ASSERT_TRUE(program.ok());
  auto report = check_isolation(program.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().accesses_proven, 2u);
  EXPECT_EQ(report.value().violations, 0u);
}

TEST(Isolation, RejectsProvableOutOfBounds) {
  auto program = microc::compile_microc(R"(
    global u8 buf[16];
    int f() { return load8(buf, 12); }   // 12 + 8 > 16
  )");
  ASSERT_TRUE(program.ok());
  auto report = check_isolation(program.value());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("buf"), std::string::npos);
}

TEST(Isolation, DynamicOffsetsLeftToRuntime) {
  auto program = microc::compile_microc(R"(
    global u8 buf[16];
    int f() { return load8(buf, hdr(key)); }
  )");
  ASSERT_TRUE(program.ok());
  auto report = check_isolation(program.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().accesses_proven, 0u);  // not provable
}

TEST(Isolation, PipelineRejectsViolatingLambda) {
  auto program = microc::compile_microc(R"(
    global u8 tiny[4];
    int bad() { return load8(tiny, 0); }   // width 8 > size 4
  )");
  ASSERT_TRUE(program.ok());
  p4::MatchSpec spec;
  spec.tables.push_back(p4::make_lambda_table("bad", 1));
  auto compiled = compile(spec, std::move(program).value());
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().message.find("isolation"), std::string::npos);
}

TEST(Isolation, StandardWorkloadsPassTheCheck) {
  auto bundle = workloads::make_standard_workloads();
  compiler::Options options;  // the isolation check always runs
  auto compiled = compile(bundle.spec, std::move(bundle.lambdas), options);
  EXPECT_TRUE(compiled.ok());
}

// ------------------------------------------- randomized differential test

// Generates a random straight-line arithmetic function; checks that DCE
// and memory stratification, alone and in sequence, preserve its return
// value and response exactly (cycles may differ under stratification).
Program random_program(Rng& rng, int length) {
  ProgramBuilder pb("rand");
  auto fb = pb.function("f", 0);
  std::vector<microc::Reg> values;
  values.push_back(fb.const_u64(rng.next_u64() % 1000 + 1));
  values.push_back(fb.const_u64(rng.next_u64() % 1000 + 1));
  for (int i = 0; i < length; ++i) {
    const auto a = values[rng.next_below(values.size())];
    const auto b = values[rng.next_below(values.size())];
    switch (rng.next_below(9)) {
      case 0: values.push_back(fb.add(a, b)); break;
      case 1: values.push_back(fb.sub(a, b)); break;
      case 2: values.push_back(fb.mul(a, b)); break;
      case 3: values.push_back(fb.and_(a, b)); break;
      case 4: values.push_back(fb.or_(a, b)); break;
      case 5: values.push_back(fb.xor_(a, b)); break;
      case 6: values.push_back(fb.add_imm(a, static_cast<std::int64_t>(
                                                  rng.next_below(100)))); break;
      case 7: values.push_back(fb.shl(a, fb.const_u64(rng.next_below(8)))); break;
      default: values.push_back(fb.cmp_ltu(a, b)); break;
    }
  }
  fb.resp_word(values.back());
  fb.ret(values.back());
  fb.finish();
  return pb.take();
}

class RandomDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDifferentialTest, OptimizationsPreserveSemantics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Program original = random_program(rng, 40);
  ASSERT_TRUE(microc::verify(original).ok());
  const auto expected = run_fn(original, 0);
  ASSERT_EQ(expected.state, RunState::kDone);

  for (int mask = 1; mask < 4; ++mask) {
    Program p = original;
    if (mask & 1) eliminate_dead_code(p);
    if (mask & 2) stratify_memory(p);
    ASSERT_TRUE(microc::verify(p).ok()) << "mask=" << mask;
    const auto out = run_fn(p, 0);
    ASSERT_EQ(out.state, RunState::kDone);
    EXPECT_EQ(out.return_value, expected.return_value) << "mask=" << mask;
    EXPECT_EQ(out.response, expected.response) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDifferentialTest,
                         ::testing::Range(1, 25));

}  // namespace
}  // namespace lnic::compiler
