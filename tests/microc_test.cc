// Tests for the Micro-C IR, builder, verifier, and interpreter:
// arithmetic semantics, memory isolation traps, external-call suspension,
// cycle accounting, code-size lowering, and the decoder's fused mix-round
// chains against a reference evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "microc/builder.h"
#include "microc/interp.h"
#include "microc/ir.h"
#include "microc/serialize.h"
#include "microc/verify.h"

namespace lnic::microc {
namespace {

// Builds a single-function program that returns f(args) and runs it.
struct MiniProgram {
  Program program;
  std::size_t entry;
};

Outcome run_simple(const Program& program, std::size_t fn,
                   const Invocation& inv = {}) {
  ObjectStore store(program);
  Machine machine(program, CostModel::npu(), &store);
  return machine.run_function(fn, inv);
}

TEST(Builder, EmitsVerifiableFunction) {
  ProgramBuilder pb("t");
  auto fb = pb.function("add2", 2);
  auto sum = fb.add(fb.arg(0), fb.arg(1));
  fb.ret(sum);
  const auto idx = fb.finish();
  const Status st = verify(pb.program());
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);

  Invocation inv;
  Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  // Args arrive in r0..r1 — set via a wrapper that loads constants.
  // Easier: no-arg wrapper exercises kCall too.
  (void)idx;
}

TEST(Interp, ArithmeticChain) {
  ProgramBuilder pb("t");
  auto fb = pb.function("calc", 0);
  auto a = fb.const_u64(21);
  auto b = fb.const_u64(2);
  auto prod = fb.mul(a, b);          // 42
  auto c = fb.const_u64(10);
  auto diff = fb.sub(prod, c);       // 32
  auto shifted = fb.shl(diff, fb.const_u64(1)); // 64
  auto rem = fb.remu(shifted, fb.const_u64(10)); // 4
  fb.ret(rem);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 4u);
  EXPECT_GT(out.cycles, 0u);
  EXPECT_EQ(out.instructions, 10u);
}

TEST(Interp, DivisionByZeroTraps) {
  ProgramBuilder pb("t");
  auto fb = pb.function("div0", 0);
  auto a = fb.const_u64(1);
  auto z = fb.const_u64(0);
  fb.ret(fb.divu(a, z));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("zero"), std::string::npos);
}

TEST(Interp, LoadStoreRoundTrip) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kLocal);
  auto fb = pb.function("rw", 0);
  auto off = fb.const_u64(8);
  auto val = fb.const_u64(0xDEADBEEFCAFEBABEull);
  fb.store(obj, off, val);
  auto loaded = fb.load(obj, off);
  fb.ret(loaded);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0xDEADBEEFCAFEBABEull);
}

TEST(Interp, NarrowWidthsMaskCorrectly) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kLocal);
  auto fb = pb.function("narrow", 0);
  auto off = fb.const_u64(0);
  auto val = fb.const_u64(0x1122334455667788ull);
  fb.store(obj, off, val, 0, 2);          // stores 0x7788
  auto loaded = fb.load(obj, off, 0, 2);  // loads 0x7788
  fb.ret(loaded);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0x7788u);
}

TEST(Interp, OutOfBoundsLoadTrapsWithObjectName) {
  // Runtime half of the isolation story (D2): a lambda cannot read
  // outside its objects.
  ProgramBuilder pb("t");
  const auto obj = pb.object("small", 8, MemScope::kLocal);
  auto fb = pb.function("oob", 0);
  auto off = fb.const_u64(8);  // 8 + width 8 > size 8
  fb.ret(fb.load(obj, off));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("small"), std::string::npos);
}

TEST(Interp, GlobalObjectsPersistAcrossInvocations) {
  // §4.1: "global objects that persist state across runs".
  ProgramBuilder pb("t");
  const auto counter = pb.object("counter", 8, MemScope::kGlobal);
  auto fb = pb.function("bump", 0);
  auto zero = fb.const_u64(0);
  auto cur = fb.load(counter, zero);
  auto next = fb.add_imm(cur, 1);
  fb.store(counter, zero, next);
  fb.ret(next);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 2u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 3u);
}

TEST(Interp, LocalObjectsZeroedPerInvocation) {
  ProgramBuilder pb("t");
  const auto scratch = pb.object("scratch", 8, MemScope::kLocal);
  auto fb = pb.function("bump", 0);
  auto zero = fb.const_u64(0);
  auto cur = fb.load(scratch, zero);
  auto next = fb.add_imm(cur, 1);
  fb.store(scratch, zero, next);
  fb.ret(next);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
  EXPECT_EQ(m.run_function(idx, inv).return_value, 1u);
}

TEST(Interp, BranchingLoopComputesSum) {
  // sum(1..10) via a loop across basic blocks.
  ProgramBuilder pb("t");
  const auto acc_obj = pb.object("acc", 16, MemScope::kLocal);
  auto fb = pb.function("sum", 0);
  auto zero = fb.const_u64(0);
  auto eight = fb.const_u64(8);
  fb.store(acc_obj, zero, zero);             // acc = 0
  auto one = fb.const_u64(1);
  fb.store(acc_obj, eight, one);             // i = 1
  const auto loop = fb.block();
  const auto body = fb.block();
  const auto done = fb.block();
  fb.select_block(0);
  fb.br(loop);
  fb.select_block(loop);
  auto i = fb.load(acc_obj, eight);
  auto limit = fb.const_u64(10);
  auto cont = fb.cmp_leu(i, limit);
  fb.br_if(cont, body, done);
  fb.select_block(body);
  auto acc = fb.load(acc_obj, zero);
  auto i2 = fb.load(acc_obj, eight);
  auto acc2 = fb.add(acc, i2);
  fb.store(acc_obj, zero, acc2);
  auto i3 = fb.add_imm(i2, 1);
  fb.store(acc_obj, eight, i3);
  fb.br(loop);
  fb.select_block(done);
  auto result = fb.load(acc_obj, zero);
  fb.ret(result);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 55u);
}

TEST(Interp, CallPassesArgsAndReturns) {
  ProgramBuilder pb("t");
  auto helper = pb.function("mul3", 1);
  auto tripled = helper.mul_imm(helper.arg(0), 3);
  helper.ret(tripled);
  const auto helper_idx = helper.finish();

  auto main = pb.function("main", 0);
  auto x = main.const_u64(14);
  auto r = main.call(helper_idx, {x});
  main.ret(r);
  const auto main_idx = main.finish();
  const Program p = pb.take();
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, main_idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 42u);
}

TEST(Interp, HeaderAndBodyAccess) {
  ProgramBuilder pb("t");
  auto fb = pb.function("hdr", 0);
  auto wid = fb.load_hdr(kHdrWorkloadId);
  auto blen = fb.body_len();
  auto b0 = fb.load_body(fb.const_u64(0));
  auto sum = fb.add(wid, fb.add(blen, b0));
  fb.ret(sum);
  const auto idx = fb.finish();
  Invocation inv;
  inv.headers.fields[kHdrWorkloadId] = 100;
  inv.body = {7, 8, 9};
  const Outcome out = run_simple(pb.take(), idx, inv);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 100u + 3u + 7u);
}

TEST(Interp, ResponseEmission) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("content", 16, MemScope::kGlobal);
  auto fb = pb.function("resp", 0);
  auto off = fb.const_u64(0);
  auto ch = fb.const_u64('A');
  fb.store(obj, off, ch, 0, 1);
  auto len = fb.const_u64(1);
  fb.resp_mem(obj, off, len);
  fb.resp_byte(fb.const_u64('B'));
  fb.ret_imm(0);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  ASSERT_EQ(out.response.size(), 2u);
  EXPECT_EQ(out.response[0], 'A');
  EXPECT_EQ(out.response[1], 'B');
}

TEST(Interp, MemCpyMovesBytesAndCharges) {
  ProgramBuilder pb("t");
  const auto src = pb.object("src", 256, MemScope::kGlobal);
  const auto dst = pb.object("dst", 256, MemScope::kGlobal);
  auto fb = pb.function("copy", 0);
  auto zero = fb.const_u64(0);
  // Fill src[0..8) with a known value first.
  auto v = fb.const_u64(0x0123456789ABCDEFull);
  fb.store(src, zero, v);
  auto len = fb.const_u64(8);
  fb.memcpy_(dst, zero, src, zero, len);
  fb.ret(fb.load(dst, zero));
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 0x0123456789ABCDEFull);
}

TEST(Interp, GrayscaleConvertsPixels) {
  ProgramBuilder pb("t");
  const auto img = pb.object("img", 8, MemScope::kGlobal);   // 2 RGBA pixels
  const auto gray = pb.object("gray", 2, MemScope::kGlobal);
  auto fb = pb.function("g", 0);
  auto zero = fb.const_u64(0);
  // Pixel 0: pure white -> 255-ish; pixel 1: pure red -> 77-ish.
  auto white = fb.const_u64(0x00FFFFFFu | (0xFFull << 24));
  fb.store(img, zero, white, 0, 4);
  auto red = fb.const_u64(0x000000FFu);  // little-endian: R=0xFF first byte
  fb.store(img, fb.const_u64(4), red, 0, 4);
  auto two = fb.const_u64(2);
  fb.grayscale(gray, zero, img, zero, two);
  auto g0 = fb.load(gray, zero, 0, 1);
  auto g1 = fb.load(gray, fb.const_u64(1), 0, 1);
  auto packed = fb.or_(fb.shl(g1, fb.const_u64(8)), g0);
  fb.ret(packed);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value & 0xFF, (77u * 255 + 150u * 255 + 29u * 255) >> 8);
  EXPECT_EQ((out.return_value >> 8) & 0xFF, (77u * 255) >> 8);
}

TEST(Interp, GrayscaleWithinOneObjectMatchesForwardLoop) {
  // Converting an object onto a range of itself: overlapping ranges must
  // keep the forward byte order (later pixels read what earlier ones
  // wrote), disjoint ones the same bytes.
  constexpr std::uint64_t kSize = 64;
  constexpr std::uint64_t kPixels = 12;
  struct Case {
    std::uint64_t doff, soff;
  };
  for (const Case c : {Case{4, 0}, Case{1, 2}, Case{0, 8}, Case{9, 16},
                       Case{48, 0}}) {
    ProgramBuilder pb("t");
    const auto buf = pb.object("buf", kSize, MemScope::kGlobal);
    auto fb = pb.function("g", 0);
    auto zero = fb.const_u64(0);
    auto size = fb.const_u64(kSize);
    fb.body_copy(buf, zero, zero, size);
    fb.grayscale(buf, fb.const_u64(c.doff), buf, fb.const_u64(c.soff),
                 fb.const_u64(kPixels));
    fb.resp_mem(buf, zero, size);
    fb.ret_imm(0);
    const auto idx = fb.finish();

    std::vector<std::uint8_t> expected(kSize);
    for (std::uint64_t i = 0; i < kSize; ++i) {
      expected[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    Invocation inv;
    inv.body = BufferView(expected);
    for (std::uint64_t i = 0; i < kPixels; ++i) {
      const std::uint8_t* p = &expected[c.soff + i * 4];
      expected[c.doff + i] = static_cast<std::uint8_t>(
          (77u * p[0] + 150u * p[1] + 29u * p[2]) >> 8);
    }
    const Outcome out = run_simple(pb.take(), idx, inv);
    ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
    EXPECT_EQ(out.response, expected) << "doff=" << c.doff
                                      << " soff=" << c.soff;
  }
}

TEST(Interp, ExtCallSuspendsAndResumes) {
  ProgramBuilder pb("t");
  auto fb = pb.function("kv", 0);
  auto key = fb.const_u64(1234);
  auto zero = fb.const_u64(0);
  auto reply = fb.ext_call(0, key, zero);  // GET
  auto doubled = fb.mul_imm(reply, 2);
  fb.ret(doubled);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  Outcome out = m.run_function(idx, inv);
  ASSERT_EQ(out.state, RunState::kYield);
  EXPECT_EQ(out.ext.kind, 0);
  EXPECT_EQ(out.ext.key, 1234u);
  EXPECT_TRUE(m.suspended());
  out = m.resume(21);
  ASSERT_EQ(out.state, RunState::kDone);
  EXPECT_EQ(out.return_value, 42u);
  EXPECT_FALSE(m.suspended());
}

TEST(Interp, FuelExhaustionTraps) {
  // Infinite loop must hit the compute limit, not hang (§2.1 limits).
  ProgramBuilder pb("t");
  auto fb = pb.function("spin", 0);
  const auto loop = fb.block();
  fb.select_block(0);
  fb.br(loop);
  fb.select_block(loop);
  fb.br(loop);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  m.set_fuel(10'000);
  Invocation inv;
  const Outcome out = m.run_function(idx, inv);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("fuel"), std::string::npos);
}

TEST(Interp, CallDepthLimitTraps) {
  // Self-recursive function must trap (recursion unsupported, §3.1b).
  ProgramBuilder pb("t");
  auto fb = pb.function("rec", 0);
  auto r = fb.call(0, {});  // calls itself
  fb.ret(r);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  EXPECT_EQ(out.state, RunState::kTrap);
  EXPECT_NE(out.trap_message.find("depth"), std::string::npos);
}

TEST(Interp, SelectPicksByCondition) {
  ProgramBuilder pb("t");
  auto fb = pb.function("sel", 0);
  auto cond = fb.const_u64(1);
  auto a = fb.const_u64(10);
  auto b = fb.const_u64(20);
  // kSelect: dst = cond ? r[b-field] : r[imm]; use builder-level emit.
  Reg d = fb.reg();
  (void)d;
  // Easier through source-free builder: use cmp+branchless via raw Instr
  // is awkward here; exercise via arithmetic identity instead:
  // select(1, 10, 20) == 10 emulated by the interpreter opcode.
  Program p = pb.take();
  Function f;
  f.name = "sel2";
  f.num_regs = 4;
  BasicBlock blk;
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 0});
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 1, .imm = 10});
  blk.instrs.push_back({.op = Opcode::kConst, .dst = 2, .imm = 20});
  blk.instrs.push_back({.op = Opcode::kSelect, .dst = 3, .a = 0, .b = 1,
                        .imm = 2});
  blk.instrs.push_back({.op = Opcode::kRet, .a = 3});
  f.blocks.push_back(blk);
  p.functions.push_back(f);
  ASSERT_TRUE(verify(p).ok());
  const Outcome out = run_simple(p, p.functions.size() - 1);
  EXPECT_EQ(out.return_value, 20u);  // cond = 0 -> else branch (r[imm])
  (void)cond; (void)a; (void)b;
}

TEST(Interp, RespWordLittleEndianOrder) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  fb.resp_word(fb.const_u64(0x0102030405060708ull));
  fb.ret_imm(0);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.response.size(), 8u);
  EXPECT_EQ(out.response[0], 0x08);
  EXPECT_EQ(out.response[7], 0x01);
}

TEST(Interp, BodyCopyRoundTrip) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 32, MemScope::kLocal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto two = fb.const_u64(2);
  auto len = fb.const_u64(4);
  fb.body_copy(obj, zero, two, len);  // buf[0..4) = body[2..6)
  fb.ret(fb.load(obj, zero, 0, 4));
  const auto idx = fb.finish();
  Invocation inv;
  inv.body = {0xAA, 0xBB, 0x11, 0x22, 0x33, 0x44, 0xCC};
  const Outcome out = run_simple(pb.take(), idx, inv);
  ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
  EXPECT_EQ(out.return_value, 0x44332211u);
}

TEST(Interp, BodyCopyOutOfBoundsTraps) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 8, MemScope::kLocal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto len = fb.const_u64(16);  // body shorter than 16
  fb.body_copy(obj, zero, zero, len);
  fb.ret_imm(0);
  const auto idx = fb.finish();
  Invocation inv;
  inv.body = {1, 2, 3};
  const Outcome out = run_simple(pb.take(), idx, inv);
  EXPECT_EQ(out.state, RunState::kTrap);
}

// An empty object or body has a null data pointer, which memmove and
// memcpy must not get even for zero bytes (the sanitize build checks).
TEST(Interp, ZeroByteCopiesOfEmptyRangesAreNoOps) {
  ProgramBuilder pb("t");
  const auto empty = pb.object("empty", 0, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  fb.memcpy_(empty, zero, empty, zero, zero);
  fb.body_copy(empty, zero, zero, zero);
  fb.ret_imm(7);
  const auto idx = fb.finish();
  const Outcome out = run_simple(pb.take(), idx);
  ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
  EXPECT_EQ(out.return_value, 7u);
}

TEST(Interp, HashStableAcrossRuns) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  auto v = fb.const_u64(0x1234);
  fb.store(obj, zero, v);
  auto len = fb.const_u64(16);
  fb.ret(fb.hash(obj, zero, len));
  const auto idx = fb.finish();
  const Program p = pb.take();
  const auto a = run_simple(p, idx).return_value;
  const auto b = run_simple(p, idx).return_value;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

TEST(Interp, AbortClearsSuspension) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto key = fb.const_u64(1);
  auto zero = fb.const_u64(0);
  fb.ret(fb.ext_call(0, key, zero));
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore store(p);
  Machine m(p, CostModel::npu(), &store);
  Invocation inv;
  auto out = m.run_function(idx, inv);
  ASSERT_EQ(out.state, RunState::kYield);
  m.abort();  // e.g. the external call timed out
  EXPECT_FALSE(m.suspended());
  // The machine is reusable for a fresh invocation afterwards.
  out = m.run_function(idx, inv);
  EXPECT_EQ(out.state, RunState::kYield);
}

TEST(Verify, RejectsDirectRecursion) {
  ProgramBuilder pb("t");
  auto fb = pb.function("rec", 0);
  auto r = fb.call(0, {});
  fb.ret(r);
  fb.finish();
  const Status st = verify(pb.program());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("cycle"), std::string::npos);
}

TEST(Verify, RejectsMutualRecursion) {
  ProgramBuilder pb("t");
  auto a = pb.function("a", 0);
  auto ra = a.call(1, {});
  a.ret(ra);
  a.finish();
  auto b = pb.function("b", 0);
  auto rb = b.call(0, {});
  b.ret(rb);
  b.finish();
  EXPECT_FALSE(verify(pb.program()).ok());
}

TEST(Verify, AcceptsDiamondCallGraph) {
  // a->b, a->c, b->d, c->d: shared callee but no cycle.
  ProgramBuilder pb("t");
  auto d = pb.function("d", 0);
  d.ret_imm(1);
  const auto di = d.finish();
  auto b = pb.function("b", 0);
  b.ret(b.call(di, {}));
  const auto bi = b.finish();
  auto c = pb.function("c", 0);
  c.ret(c.call(di, {}));
  const auto ci = c.finish();
  auto a = pb.function("a", 0);
  auto x = a.call(bi, {});
  auto y = a.call(ci, {});
  a.ret(a.add(x, y));
  a.finish();
  EXPECT_TRUE(verify(pb.program()).ok());
}

TEST(CostModel, RegionLatencyOrdering) {
  const CostModel npu = CostModel::npu();
  EXPECT_LT(npu.region_read[0], npu.region_read[1]);
  EXPECT_LT(npu.region_read[1], npu.region_read[2]);
  EXPECT_LT(npu.region_read[2], npu.region_read[3]);
}

TEST(CostModel, CyclesToDuration) {
  const CostModel npu = CostModel::npu();
  // 633 cycles at 633 MHz = 1 us.
  EXPECT_NEAR(static_cast<double>(npu.cycles_to_duration(633)), 1000.0, 2.0);
}

TEST(CostModel, PythonRuntimeScalesCycles) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  auto a = fb.const_u64(5);
  auto b = fb.add_imm(a, 3);
  fb.ret(b);
  const auto idx = fb.finish();
  const Program p = pb.take();
  ObjectStore s1(p), s2(p);
  Machine native(p, CostModel::host_native(), &s1);
  Machine python(p, CostModel::host_python(), &s2);
  Invocation inv;
  const auto n = native.run_function(idx, inv);
  const auto py = python.run_function(idx, inv);
  const double factor = microc::CostModel::host_python().runtime_factor;
  EXPECT_NEAR(static_cast<double>(py.cycles),
              static_cast<double>(n.cycles) * factor,
              static_cast<double>(n.cycles) * factor * 0.01);
}

TEST(CodeSize, MemoryPlacementChangesLoweredSize) {
  ProgramBuilder pb("t");
  const auto obj = pb.object("buf", 64, MemScope::kGlobal);
  auto fb = pb.function("f", 0);
  auto zero = fb.const_u64(0);
  fb.ret(fb.load(obj, zero));
  fb.finish();
  Program p = pb.take();
  p.objects[obj].region = MemRegion::kEmem;
  const auto emem_size = code_size(p);
  p.objects[obj].region = MemRegion::kLocal;
  const auto local_size = code_size(p);
  EXPECT_GT(emem_size, local_size);
}

TEST(CodeSize, ParserFieldsCountTowardSize) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  fb.ret_imm(0);
  fb.finish();
  Program p0 = pb.take();
  const auto base = code_size(p0);
  p0.parsed_fields = {kHdrWorkloadId, kHdrKey, kHdrOp};
  EXPECT_EQ(code_size(p0), base + 3);
}

TEST(Verify, RejectsBadBranchTarget) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 1;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kBr, .imm = 5});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsMissingTerminator) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 2;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsRegisterOutOfRange) {
  Program p;
  Function f;
  f.name = "bad";
  f.num_regs = 1;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kMov, .dst = 0, .a = 9});
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

TEST(Verify, RejectsSelectRegisterOutOfRange) {
  // kSelect keeps its third register index in imm, which execute() reads
  // unchecked; verify() must range-check it, also after a firmware round
  // trip.
  for (const std::int64_t imm : {std::int64_t{2}, std::int64_t{40000},
                                 std::int64_t{-1}}) {
    Program p;
    Function f;
    f.name = "sel";
    f.num_regs = 2;
    BasicBlock b;
    b.instrs.push_back({.op = Opcode::kConst, .dst = 0, .imm = 1});
    b.instrs.push_back(
        {.op = Opcode::kSelect, .dst = 1, .a = 0, .b = 0, .imm = imm});
    b.instrs.push_back({.op = Opcode::kRet, .a = 1});
    f.blocks.push_back(b);
    p.functions.push_back(f);
    const Status st = verify(p);
    ASSERT_FALSE(st.ok()) << imm;
    EXPECT_NE(st.error().message.find("register index out of range at select"),
              std::string::npos)
        << st.error().message;
    auto loaded = deserialize(serialize(p));
    ASSERT_TRUE(loaded.ok());
    EXPECT_FALSE(verify(loaded.value()).ok()) << imm;
  }
}

TEST(Verify, RejectsWrongCallArity) {
  ProgramBuilder pb("t");
  auto helper = pb.function("h", 2);
  helper.ret(helper.arg(0));
  const auto h = helper.finish();
  Program p = pb.take();
  Function f;
  f.name = "caller";
  f.num_regs = 4;
  BasicBlock b;
  b.instrs.push_back({.op = Opcode::kCall, .dst = 0, .a = 0, .b = 1,
                      .imm = static_cast<std::int64_t>(h)});
  b.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(b);
  p.functions.push_back(f);
  EXPECT_FALSE(verify(p).ok());
}

// Objects get real backing when a program runs (globals in the
// ObjectStore, locals in each Machine), so verify() caps their total at
// the card's EMEM, also after a firmware round trip.
Program with_objects(const std::vector<Bytes>& sizes) {
  ProgramBuilder pb("t");
  auto fb = pb.function("f", 0);
  fb.ret_imm(0);
  fb.finish();
  Program p = pb.take();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    MemObject obj;
    obj.name = "obj" + std::to_string(i);
    obj.size = sizes[i];
    p.objects.push_back(obj);
  }
  return p;
}

void expect_exceeds_emem(const Program& p) {
  const Status st = verify(p);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("exceeds EMEM"), std::string::npos)
      << st.error().message;
  auto loaded = deserialize(serialize(p));
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(verify(loaded.value()).ok());
}

TEST(Verify, RejectsObjectLargerThanEmem) {
  expect_exceeds_emem(with_objects({Bytes{1} << 62}));
}

TEST(Verify, RejectsObjectsThatTogetherExceedEmem) {
  const Bytes one_and_a_half_gib = 1536_MiB;
  EXPECT_TRUE(verify(with_objects({one_and_a_half_gib})).ok());
  expect_exceeds_emem(with_objects({one_and_a_half_gib, one_and_a_half_gib}));
}

// Differential test for the decoder's mix-round fusion: random
// straight-line programs of const, mul_imm, shr, xor and add_imm over five
// registers, run by the Machine and by a reference evaluator. Golden rows
// see only responses and counts; these programs respond with every
// register, so a fused step that reads or writes the wrong one shows.
constexpr std::uint16_t kMixRegs = 5;

// What the generator emitted, so the test can check every case occurred.
struct MixTally {
  int chain_links = 0;  // a whole round continuing the previous one's chain
  int partial = 0;      // a round cut after its mul_imm or shr
  int d0_is_x = 0;
  int d1_is_d0 = 0;
  int k_is_d0 = 0;
  int k_written = 0;    // the shift register overwritten between rounds
  int inner_read = 0;   // a round reads a register left by a round's inside
};

std::vector<Instr> random_mix_code(Rng& rng, MixTally& tally) {
  auto reg = [&rng] {
    return static_cast<std::uint16_t>(rng.next_below(kMixRegs));
  };
  auto reg_except = [&reg](std::initializer_list<std::uint16_t> avoid) {
    while (true) {
      const std::uint16_t r = reg();
      if (std::find(avoid.begin(), avoid.end(), r) == avoid.end()) return r;
    }
  };
  auto imm = [&rng](std::uint64_t bound) {
    return static_cast<std::int64_t>(bound == 0 ? rng.next_u64()
                                                : rng.next_below(bound));
  };
  std::vector<Instr> code;
  for (std::uint16_t r = 0; r < kMixRegs; ++r) {
    code.push_back({.op = Opcode::kConst, .dst = r, .imm = imm(0)});
  }
  std::uint16_t k = reg();  // the shift register clean rounds use
  code.push_back({.op = Opcode::kConst, .dst = k, .imm = imm(64)});
  std::uint16_t acc = reg_except({k});
  std::vector<bool> inner(kMixRegs, false);  // last written inside a round
  std::uint64_t chain_len = 0;  // length of a clean round just emitted
  const int rounds = 4 + static_cast<int>(rng.next_below(28));
  for (int n = 0; n < rounds; ++n) {
    if (rng.next_below(10) == 0) {  // a const between rounds, maybe into k
      const std::uint16_t d = reg();
      code.push_back({.op = Opcode::kConst, .dst = d, .imm = imm(64)});
      tally.k_written += d == k;
      if (rng.next_bool(0.5)) k = d;
      inner[d] = false;
      chain_len = 0;
      continue;
    }
    // Mostly a clean round continuing the chain; otherwise any register
    // for each operand, which makes every hazard likely.
    const bool clean = rng.next_below(4) != 0;
    const std::uint16_t x = clean ? acc : reg();
    const std::uint16_t x1 = clean || rng.next_bool(0.7) ? x : reg();
    const std::uint16_t kk = clean ? k : reg();
    const std::uint16_t d0 = clean ? reg_except({x, kk}) : reg();
    const std::uint16_t d1 = clean ? reg_except({d0, kk}) : reg();
    const std::uint16_t d2 = clean ? reg_except({kk}) : reg();
    const std::uint16_t d3 = clean ? reg_except({kk}) : reg();
    const std::uint16_t w = clean || rng.next_bool(0.8) ? d0 : reg();
    const std::uint16_t y = clean || rng.next_bool(0.8) ? d1 : reg();
    const std::uint16_t z = clean || rng.next_bool(0.8) ? d2 : reg();
    const std::uint64_t len = rng.next_below(8) == 0 ? 1 + rng.next_below(2)
                                                     : 3 + rng.next_below(2);
    tally.inner_read += inner[x] || inner[x1] || inner[kk];
    code.push_back({.op = Opcode::kMulImm, .dst = d0, .a = x,
                    .imm = imm(0) | 1});
    if (len >= 2) code.push_back({.op = Opcode::kShr, .dst = d1, .a = x1,
                                  .b = kk});
    if (len >= 3) {
      const bool swap = rng.next_bool(0.5);
      code.push_back({.op = Opcode::kXor, .dst = d2, .a = swap ? y : w,
                      .b = swap ? w : y});
    }
    if (len == 4) code.push_back({.op = Opcode::kAddImm, .dst = d3, .a = z,
                                  .imm = imm(1000)});
    const std::uint16_t dsts[] = {d0, d1, d2, d3};
    for (std::uint64_t i = 0; i < len; ++i) {
      inner[dsts[i]] = i + 1 < len;
      tally.k_written += !clean && dsts[i] == k;
    }
    tally.partial += len < 3;
    tally.d0_is_x += len >= 2 && d0 == x && x1 == x;
    tally.d1_is_d0 += len >= 3 && d1 == d0;
    tally.k_is_d0 += len >= 2 && kk == d0;
    tally.chain_links += clean && len == chain_len;
    chain_len = clean && len >= 3 ? len : 0;
    acc = dsts[len - 1];
  }
  return code;
}

// The reference: one instruction at a time, as the IR defines them.
std::vector<std::uint64_t> reference_run(const std::vector<Instr>& code) {
  std::vector<std::uint64_t> r(kMixRegs, 0);
  for (const Instr& in : code) {
    const auto imm = static_cast<std::uint64_t>(in.imm);
    switch (in.op) {
      case Opcode::kConst: r[in.dst] = imm; break;
      case Opcode::kMulImm: r[in.dst] = r[in.a] * imm; break;
      case Opcode::kShr: r[in.dst] = r[in.a] >> (r[in.b] & 63); break;
      case Opcode::kXor: r[in.dst] = r[in.a] ^ r[in.b]; break;
      case Opcode::kAddImm: r[in.dst] = r[in.a] + imm; break;
      default: ADD_FAILURE() << "unexpected " << to_string(in.op); break;
    }
  }
  return r;
}

// `code`, then a response of every register and a return.
Program mix_program(const std::vector<Instr>& code) {
  Function f;
  f.name = "mix";
  f.num_regs = kMixRegs;
  BasicBlock block{code};
  for (std::uint16_t r = 0; r < kMixRegs; ++r) {
    block.instrs.push_back({.op = Opcode::kRespWord, .a = r});
  }
  block.instrs.push_back({.op = Opcode::kRet, .a = 0});
  f.blocks.push_back(std::move(block));
  Program p;
  p.functions.push_back(std::move(f));
  return p;
}

constexpr std::uint64_t kMixSeeds = 300;

TEST(InterpFusion, RandomMixChainsMatchReference) {
  const CostModel npu = CostModel::npu();
  MixTally tally;
  for (std::uint64_t seed = 1; seed <= kMixSeeds; ++seed) {
    Rng rng(seed);
    const std::vector<Instr> code = random_mix_code(rng, tally);
    const std::vector<std::uint64_t> expected = reference_run(code);
    const Program p = mix_program(code);
    ASSERT_TRUE(verify(p).ok()) << seed;
    Machine machine(p, npu, nullptr);
    const Invocation inv;
    const Outcome out = machine.run_function(0, inv);
    ASSERT_EQ(out.state, RunState::kDone) << seed;
    ASSERT_EQ(out.response.size(), 8u * kMixRegs) << seed;
    for (std::uint16_t r = 0; r < kMixRegs; ++r) {
      std::uint64_t word = 0;
      for (int i = 0; i < 8; ++i) {
        word |= std::uint64_t{out.response[8 * r + i]} << (8 * i);
      }
      EXPECT_EQ(word, expected[r]) << "seed " << seed << " r" << r;
    }
    EXPECT_EQ(out.instructions, code.size() + kMixRegs + 1) << seed;
    EXPECT_EQ(out.cycles, code.size() * npu.alu_cycles +
                              kMixRegs * npu.body_cycles + npu.branch_cycles)
        << seed;
  }
  // The corpus covers chains and every case the fusion rule must refuse.
  EXPECT_GT(tally.chain_links, 0);
  EXPECT_GT(tally.partial, 0);
  EXPECT_GT(tally.d0_is_x, 0);
  EXPECT_GT(tally.d1_is_d0, 0);
  EXPECT_GT(tally.k_is_d0, 0);
  EXPECT_GT(tally.k_written, 0);
  EXPECT_GT(tally.inner_read, 0);
}

TEST(InterpFusion, FuelCutsInsideChainsCountExactly) {
  // With unit ALU cost, fuel f stops the run before instruction f + 1:
  // the f + 1 instructions before it ran and cost f + 1 cycles.
  ASSERT_EQ(CostModel::npu().alu_cycles, 1u);
  MixTally tally;
  for (std::uint64_t seed = 1; seed <= kMixSeeds; ++seed) {
    Rng rng(seed);
    const std::vector<Instr> code = random_mix_code(rng, tally);
    const Program p = mix_program(code);
    Machine machine(p, CostModel::npu(), nullptr);
    const Invocation inv;
    for (std::uint64_t fuel = 0; fuel < code.size(); ++fuel) {
      machine.set_fuel(fuel);
      const Outcome out = machine.run_function(0, inv);
      ASSERT_EQ(out.state, RunState::kTrap) << seed << " fuel " << fuel;
      EXPECT_EQ(out.trap_message, "fuel exhausted (compute limit)");
      EXPECT_EQ(out.instructions, fuel + 1) << seed << " fuel " << fuel;
      EXPECT_EQ(out.cycles, fuel + 1) << seed << " fuel " << fuel;
    }
  }
}

// ------------------------------------------------------------ kHash memo
// The ObjectStore answers a kHash from its memo only while the range's
// bytes still equal the copy taken when it was hashed. These tests write
// through every path the interpreter has (store, memcpy, grayscale, body
// copy), from one Machine or several on one store, and check every hash
// against FNV-1a over a shadow copy of the objects.

std::uint64_t fnv1a_of(const std::vector<std::uint8_t>& bytes,
                       std::uint64_t off, std::uint64_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint64_t i = off; i < off + len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint8_t luma_of(const std::uint8_t* rgba) {
  return static_cast<std::uint8_t>(
      (77u * rgba[0] + 150u * rgba[1] + 29u * rgba[2]) >> 8);
}

// Two global objects, and per object (or [dst][src] pair) one function for
// kHash and one per write path. Operands come from the headers in the
// order the intrinsic takes them: key, value, then op.
struct MemoProgram {
  Program program;
  std::uint32_t hash[2]{};         // hash(x, off, len)
  std::uint32_t parked_hash[2]{};  // the same, an ext call, then again
  std::uint32_t store[2]{};        // store1(x, off, byte)
  std::uint32_t memcpy[2][2]{};    // memcpy(dst, doff, src, soff, len)
  std::uint32_t gray[2][2]{};      // grayscale(dst, doff, src, soff, pixels)
  std::uint32_t body_copy[2]{};    // body_copy(x, doff, boff, len)
};

MemoProgram memo_program(Bytes size) {
  MemoProgram mp;
  ProgramBuilder pb("memo");
  const std::uint16_t obj[2] = {pb.object("a", size, MemScope::kGlobal),
                                pb.object("b", size, MemScope::kGlobal)};
  for (int x = 0; x < 2; ++x) {
    const std::string n = std::to_string(x);
    {
      auto fb = pb.function("hash" + n, 0);
      fb.ret(fb.hash(obj[x], fb.load_hdr(kHdrKey), fb.load_hdr(kHdrValue)));
      mp.hash[x] = fb.finish();
    }
    {
      auto fb = pb.function("parked_hash" + n, 0);
      const Reg off = fb.load_hdr(kHdrKey);
      const Reg len = fb.load_hdr(kHdrValue);
      const Reg before = fb.hash(obj[x], off, len);
      fb.ext_call(0, before, before);
      fb.resp_word(before);
      fb.resp_word(fb.hash(obj[x], off, len));
      fb.ret_imm(0);
      mp.parked_hash[x] = fb.finish();
    }
    {
      auto fb = pb.function("store" + n, 0);
      fb.store(obj[x], fb.load_hdr(kHdrKey), fb.load_hdr(kHdrValue), 0, 1);
      fb.ret_imm(0);
      mp.store[x] = fb.finish();
    }
    {
      auto fb = pb.function("body_copy" + n, 0);
      fb.body_copy(obj[x], fb.load_hdr(kHdrKey), fb.load_hdr(kHdrValue),
                   fb.load_hdr(kHdrOp));
      fb.ret_imm(0);
      mp.body_copy[x] = fb.finish();
    }
    for (int y = 0; y < 2; ++y) {
      const std::string ny = n + std::to_string(y);
      {
        auto fb = pb.function("memcpy" + ny, 0);
        fb.memcpy_(obj[x], fb.load_hdr(kHdrKey), obj[y],
                   fb.load_hdr(kHdrValue), fb.load_hdr(kHdrOp));
        fb.ret_imm(0);
        mp.memcpy[x][y] = fb.finish();
      }
      {
        auto fb = pb.function("gray" + ny, 0);
        fb.grayscale(obj[x], fb.load_hdr(kHdrKey), obj[y],
                     fb.load_hdr(kHdrValue), fb.load_hdr(kHdrOp));
        fb.ret_imm(0);
        mp.gray[x][y] = fb.finish();
      }
    }
  }
  mp.program = pb.take();
  return mp;
}

// Runs a MemoProgram on one ObjectStore through several Machines, mirrors
// every write in a shadow copy of both objects, and checks every hash
// against fnv1a_of the shadow.
class MemoRig {
 public:
  MemoRig(Bytes size, std::size_t machines, std::uint64_t seed)
      : mp_(memo_program(size)), store_(mp_.program), invocations_(machines),
        parked_(machines) {
    Rng rng(seed);
    for (int x = 0; x < 2; ++x) {
      for (std::uint8_t& byte : store_.data(x)) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      shadow_[x] = store_.data(x);
    }
    for (std::size_t m = 0; m < machines; ++m) {
      machines_.push_back(
          std::make_unique<Machine>(mp_.program, CostModel::npu(), &store_));
    }
  }

  const std::vector<std::uint8_t>& shadow(int x) const { return shadow_[x]; }
  const ObjectStore& store() const { return store_; }
  bool parked(std::size_t m) const { return machines_[m]->suspended(); }

  std::uint64_t hash(int x, std::uint64_t off, std::uint64_t len,
                     std::size_t m = 0) {
    const Outcome out = run(m, mp_.hash[x], off, len);
    EXPECT_EQ(out.state, RunState::kDone) << out.trap_message;
    EXPECT_EQ(out.return_value, fnv1a_of(shadow_[x], off, len))
        << "object " << x << " [" << off << ", +" << len << ")";
    return out.return_value;
  }
  // Hashes the range on machine m, which then waits on an ext call until
  // resume() has it hash the range again.
  void park(std::size_t m, int x, std::uint64_t off, std::uint64_t len) {
    const Outcome out = run(m, mp_.parked_hash[x], off, len);
    ASSERT_EQ(out.state, RunState::kYield) << out.trap_message;
    EXPECT_EQ(out.ext.key, fnv1a_of(shadow_[x], off, len));
    parked_[m] = {x, off, len, out.ext.key};
  }
  void resume(std::size_t m) {
    const Parked& p = parked_[m];
    const Outcome out = machines_[m]->resume(0);
    ASSERT_EQ(out.state, RunState::kDone) << out.trap_message;
    ASSERT_EQ(out.response.size(), 16u);
    std::uint64_t words[2];
    std::memcpy(words, out.response.data(), sizeof(words));
    EXPECT_EQ(words[0], p.before);
    EXPECT_EQ(words[1], fnv1a_of(shadow_[p.x], p.off, p.len))
        << "object " << p.x << " [" << p.off << ", +" << p.len << ")";
  }

  void store_byte(int x, std::uint64_t at, std::uint8_t byte,
                  std::size_t m = 0) {
    expect_done(run(m, mp_.store[x], at, byte));
    shadow_[x][at] = byte;
  }
  void memcpy(int dst, std::uint64_t doff, int src, std::uint64_t soff,
              std::uint64_t len, std::size_t m = 0) {
    expect_done(run(m, mp_.memcpy[dst][src], doff, soff, len));
    std::memmove(shadow_[dst].data() + doff, shadow_[src].data() + soff, len);
  }
  void grayscale(int dst, std::uint64_t doff, int src, std::uint64_t soff,
                 std::uint64_t pixels, std::size_t m = 0) {
    expect_done(run(m, mp_.gray[dst][src], doff, soff, pixels));
    for (std::uint64_t i = 0; i < pixels; ++i) {  // forward, like the NIC
      shadow_[dst][doff + i] = luma_of(shadow_[src].data() + soff + i * 4);
    }
  }
  void body_copy(int x, std::uint64_t doff,
                 const std::vector<std::uint8_t>& body, std::size_t m = 0) {
    expect_done(run(m, mp_.body_copy[x], doff, 0, body.size(), body));
    std::copy(body.begin(), body.end(), shadow_[x].begin() + doff);
  }

 private:
  struct Parked {
    int x = 0;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    std::uint64_t before = 0;
  };

  Outcome run(std::size_t m, std::uint32_t fn, std::uint64_t key,
              std::uint64_t value, std::uint64_t op = 0,
              std::vector<std::uint8_t> body = {}) {
    // Each Machine keeps its invocation across a park, so it owns one.
    Invocation& inv = invocations_[m];
    inv.headers.fields[kHdrKey] = key;
    inv.headers.fields[kHdrValue] = value;
    inv.headers.fields[kHdrOp] = op;
    inv.body = std::move(body);
    return machines_[m]->run_function(fn, inv);
  }
  static void expect_done(const Outcome& out) {
    EXPECT_EQ(out.state, RunState::kDone) << out.trap_message;
  }

  MemoProgram mp_;
  ObjectStore store_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<Invocation> invocations_;
  std::vector<Parked> parked_;
  std::vector<std::uint8_t> shadow_[2];
};

// A write inside a hashed range changes its next hash (the memo misses);
// a write just outside it leaves the hash as it was (the memo hits).
TEST(HashMemo, EveryWritePathChangesTheRangesHash) {
  constexpr std::uint64_t kOff = 64;
  constexpr std::uint64_t kLen = 128;
  // Each writes a byte of object 0 at `at` that differs from the old one.
  using Write = std::function<void(MemoRig&, std::uint64_t)>;
  const std::vector<std::pair<std::string, Write>> writes = {
      {"store",
       [](MemoRig& rig, std::uint64_t at) {
         rig.store_byte(0, at, rig.shadow(0)[at] ^ 0x5A);
       }},
      {"memcpy",
       [](MemoRig& rig, std::uint64_t at) {
         std::uint64_t src = 0;
         while (rig.shadow(1)[src] == rig.shadow(0)[at]) ++src;
         rig.memcpy(0, at, 1, src, 1);
       }},
      {"grayscale",
       [](MemoRig& rig, std::uint64_t at) {
         std::uint64_t px = 0;
         while (luma_of(rig.shadow(1).data() + px * 4) == rig.shadow(0)[at]) {
           ++px;
         }
         rig.grayscale(0, at, 1, px * 4, 1);
       }},
      {"body_copy",
       [](MemoRig& rig, std::uint64_t at) {
         rig.body_copy(0, at, {static_cast<std::uint8_t>(~rig.shadow(0)[at])});
       }},
  };
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    MemoRig rig(512, 1, 7);
    const std::uint64_t before = rig.hash(0, kOff, kLen);
    EXPECT_EQ(rig.hash(0, kOff, kLen), before);
    EXPECT_EQ(rig.store().hash_hits(), 1u);

    write(rig, kOff + kLen / 2);
    const std::uint64_t after = rig.hash(0, kOff, kLen);
    EXPECT_NE(after, before);
    EXPECT_EQ(rig.store().hash_hits(), 1u);

    write(rig, kOff - 1);
    write(rig, kOff + kLen);
    EXPECT_EQ(rig.hash(0, kOff, kLen), after);
    EXPECT_EQ(rig.store().hash_hits(), 2u);
  }
}

// One Machine hashes a range and parks on an ext call; another writes into
// the range (and, the second time, refills the memo) before it resumes.
TEST(HashMemo, ParkedMachineSeesAnotherMachinesWrite) {
  for (const bool rehash : {false, true}) {
    SCOPED_TRACE(rehash ? "writer rehashes" : "writer only writes");
    MemoRig rig(256, 2, 11);
    rig.park(0, 0, 32, 64);
    ASSERT_TRUE(rig.parked(0));
    rig.store_byte(0, 40, rig.shadow(0)[40] ^ 1, /*m=*/1);
    if (rehash) rig.hash(0, 32, 64, /*m=*/1);
    rig.resume(0);
    EXPECT_FALSE(rig.parked(0));
  }
}

// More ranges than the memo has slots, so they evict each other: the four
// 1 KiB pages the web lambda hashes, the whole object, zero-length ranges
// (one at off == size) and random ones, over both objects, with a write
// between rounds.
TEST(HashMemo, MoreRangesThanSlotsStayExact) {
  constexpr std::uint64_t kSize = 4096;
  MemoRig rig(kSize, 1, 3);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (std::uint64_t page = 0; page < 4; ++page) {
    ranges.emplace_back(page * 1024, 1024);
  }
  ranges.emplace_back(0, kSize);
  ranges.emplace_back(0, 0);
  ranges.emplace_back(kSize, 0);
  Rng rng(5);
  while (ranges.size() < 40) {
    const std::uint64_t off = rng.next_below(kSize + 1);
    ranges.emplace_back(off, rng.next_below(kSize - off + 1));
  }
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (const auto& [off, len] : ranges) {
      rig.hash(0, off, len);
      rig.hash(1, off, len);
    }
    const std::uint64_t at = round * 1024 + 512;
    rig.store_byte(0, at, rig.shadow(0)[at] ^ 0x80);
    // Newest first, so the ranges still in the memo are checked first.
    for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
      rig.hash(0, it->first, it->second);
    }
  }
  EXPECT_EQ(rig.hash(0, kSize, 0), 0xcbf29ce484222325ull);

  // The four pages of one object occupy four slots: once each is warm,
  // hashing all four again hits four times.
  for (int x = 0; x < 2; ++x) {
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t hits = rig.store().hash_hits();
      for (std::uint64_t page = 0; page < 4; ++page) {
        rig.hash(x, page * 1024, 1024);
      }
      if (pass == 1) {
        EXPECT_EQ(rig.store().hash_hits(), hits + 4) << x;
      }
    }
  }
}

// Three Machines on one store interleave hashes, parks and all four write
// paths over two small objects, so writes land in hashed ranges often.
TEST(HashMemo, RandomInterleavingMatchesShadow) {
  constexpr std::uint64_t kSize = 96;
  constexpr std::size_t kMachines = 3;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    MemoRig rig(kSize, kMachines, seed);
    Rng rng(seed * 7919);
    const auto below = [&rng](std::uint64_t bound) {
      return rng.next_below(bound);
    };
    // Few distinct ranges, so repeats (memo hits) are common.
    const auto range = [&below](std::uint64_t& off, std::uint64_t& len) {
      const std::uint64_t lens[] = {0, 8, 32, 64};
      off = 8 * below(5);
      len = std::min(kSize - off, lens[below(4)]);
    };
    for (int step = 0; step < 300; ++step) {
      const std::size_t m = below(kMachines);
      if (rig.parked(m)) {
        rig.resume(m);
        continue;
      }
      const int x = static_cast<int>(below(2));
      const int y = static_cast<int>(below(2));
      std::uint64_t off = 0;
      std::uint64_t len = 0;
      switch (below(6)) {
        case 0:
          range(off, len);
          rig.hash(x, off, len, m);
          break;
        case 1:
          range(off, len);
          rig.park(m, x, off, len);
          break;
        case 2:
          rig.store_byte(x, below(kSize), static_cast<std::uint8_t>(below(256)),
                         m);
          break;
        case 3:
          len = below(17);
          rig.memcpy(x, below(kSize - len + 1), y, below(kSize - len + 1), len,
                     m);
          break;
        case 4: {
          const std::uint64_t pixels = below(9);
          rig.grayscale(x, below(kSize - pixels + 1), y,
                        below(kSize - pixels * 4 + 1), pixels, m);
          break;
        }
        case 5: {
          std::vector<std::uint8_t> body(below(9));
          for (std::uint8_t& b : body) b = static_cast<std::uint8_t>(below(256));
          rig.body_copy(x, below(kSize - body.size() + 1), body, m);
          break;
        }
      }
    }
    for (std::size_t m = 0; m < kMachines; ++m) {
      if (rig.parked(m)) rig.resume(m);
    }
    EXPECT_EQ(rig.store().data(0), rig.shadow(0));
    EXPECT_EQ(rig.store().data(1), rig.shadow(1));
    EXPECT_GT(rig.store().hash_hits(), 0u);
  }
}

// Property: dynamic cycle count is monotone under appended busywork.
class CycleMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleMonotoneTest, MoreWorkMoreCycles) {
  const int extra = GetParam();
  auto build = [](int busywork) {
    ProgramBuilder pb("t");
    auto fb = pb.function("f", 0);
    auto acc = fb.const_u64(1);
    for (int i = 0; i < busywork; ++i) acc = fb.add_imm(acc, 1);
    fb.ret(acc);
    const auto idx = fb.finish();
    Program p = pb.take();
    ObjectStore store(p);
    Machine m(p, CostModel::npu(), &store);
    Invocation inv;
    return m.run_function(idx, inv).cycles;
  };
  EXPECT_LT(build(extra), build(extra + 10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CycleMonotoneTest,
                         ::testing::Values(0, 5, 50, 500));

}  // namespace
}  // namespace lnic::microc
