#include "microc/interp.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#include "microc/liveness.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define LNIC_GRAYSCALE_AVX2 1
#endif

namespace lnic::microc {

namespace {
constexpr std::size_t kMaxCallDepth = 16;     // NPUs do not support recursion

// Longer kHash ranges skip the memo, so it holds at most 16 x 64 KiB.
constexpr std::uint64_t kHashMemoMaxBytes = 64 << 10;

// The memo slot of a kHash range. Every field goes through a multiply, so
// the pages of one object spread over the slots instead of sharing one.
std::size_t hash_memo_slot(std::size_t object, std::uint64_t off,
                           std::uint64_t len) {
  std::uint64_t h = (object + 1) * 0x9E3779B97F4A7C15ull;
  h = (h ^ off) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ len) * 0x94D049BB133111EBull;
  return static_cast<std::size_t>(h >> 60);
}

/// RGBA8888 -> 8-bit luma with integer weights (no FPU, §3.1b):
/// y = (77 R + 150 G + 29 B) >> 8.
std::uint8_t luma(const std::uint8_t* rgba) {
  return static_cast<std::uint8_t>(
      (77u * rgba[0] + 150u * rgba[1] + 29u * rgba[2]) >> 8);
}

#ifdef LNIC_GRAYSCALE_AVX2
/// luma() of the 8 pixels at `rgba`, one per 32-bit lane. A pixel's two
/// 16-bit halves are (R, G) and (B, A): the mask keeps (R, B), the shift
/// keeps (G, A), and one multiply-add per pair sums 77 R + 29 B and
/// 150 G + 0 A into the pixel's lane.
__attribute__((target("avx2"))) inline __m256i luma8_avx2(
    const std::uint8_t* rgba) {
  const __m256i px =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rgba));
  const __m256i rb = _mm256_and_si256(px, _mm256_set1_epi32(0x00FF00FF));
  const __m256i ga = _mm256_srli_epi16(px, 8);
  const __m256i sum =
      _mm256_add_epi32(_mm256_madd_epi16(rb, _mm256_set1_epi32(29 << 16 | 77)),
                       _mm256_madd_epi16(ga, _mm256_set1_epi32(150)));
  return _mm256_srli_epi32(sum, 8);
}

/// Converts the leading whole blocks of 32 pixels of ranges that do not
/// overlap and returns how many pixels that was. Exact: the weights sum to
/// 256, so a lane holds at most 256 * 255 = 65,280 before the shift and
/// 255 after it, and neither pack saturates.
__attribute__((target("avx2"))) std::uint64_t grayscale_avx2(
    std::uint8_t* out, const std::uint8_t* rgba, std::uint64_t pixels) {
  // The packs work within each 128-bit half, so the lumas come out in
  // 4-pixel groups 0-3, 8-11, 16-19, 24-27, 4-7, 12-15, 20-23, 28-31;
  // the permute puts the groups back in order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::uint64_t i = 0;
  for (; i + 32 <= pixels; i += 32) {
    const std::uint8_t* p = rgba + i * 4;
    const __m256i lo = _mm256_packs_epi32(luma8_avx2(p), luma8_avx2(p + 32));
    const __m256i hi =
        _mm256_packs_epi32(luma8_avx2(p + 64), luma8_avx2(p + 96));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_permutevar8x32_epi32(_mm256_packus_epi16(lo, hi), order));
  }
  return i;
}

// Read once, at start-up. Static initializers may run before the CPU
// model is read, hence __builtin_cpu_init.
const bool kCpuHasAvx2 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}();
#endif

/// kGrayscale's conversion. Where the CPU has AVX2, ranges that do not
/// overlap (always the case for two distinct objects) go through
/// grayscale_avx2. The forward loop converts the rest: the last < 32
/// pixels, overlapping ranges of one object (later pixels read the bytes
/// earlier ones wrote), and everything on other CPUs.
void grayscale(std::uint8_t* out, const std::uint8_t* rgba,
               std::uint64_t pixels) {
  std::uint64_t i = 0;
#ifdef LNIC_GRAYSCALE_AVX2
  const auto out_at = reinterpret_cast<std::uintptr_t>(out);
  const auto rgba_at = reinterpret_cast<std::uintptr_t>(rgba);
  if (kCpuHasAvx2 &&
      (out_at + pixels <= rgba_at || rgba_at + pixels * 4 <= out_at)) {
    i = grayscale_avx2(out, rgba, pixels);
  }
#endif
  for (; i < pixels; ++i) out[i] = luma(rgba + i * 4);
}

/// True when [off, off + len) does not fit in `size` bytes. Never computes
/// off + len, which wraps for offsets a request can supply.
bool out_of_range(std::uint64_t off, std::uint64_t len, std::uint64_t size) {
  return off > size || len > size - off;
}
}  // namespace

// Decoded opcodes: the IR's, in the same order, then pseudo-ops.
enum class Op : std::uint8_t {
  kConst, kMov, kAdd, kSub, kMul, kDivU, kRemU, kAnd, kOr, kXor, kShl, kShr,
  kAddImm, kMulImm, kFxMul, kCmpEq, kCmpNe, kCmpLtU, kCmpLeU, kCmpEqImm,
  kSelect, kLoadHdr, kLoadBody, kBodyLen, kLoadMatch, kLoad, kStore,
  kRespByte, kRespWord, kRespMem, kMemCpy, kGrayscale, kHash, kBodyCopy,
  kExtCall, kBr, kBrIf, kCall, kRet,
  kFellOff,  // a block ends without a terminator (imm = function): trap
  kFuelOut,  // fuel runs out here; only in a Machine's fuel tail
  // The kMulImm heading a mix round (fuse_mix_rounds) of 3 or 4 steps;
  // alt = rounds in its chain.
  kMixChain3,
  kMixChain4,
};
static_assert(static_cast<int>(Op::kLoad) == static_cast<int>(Opcode::kLoad));
static_assert(static_cast<int>(Op::kRet) == static_cast<int>(Opcode::kRet));

/// One decoded instruction. A segment is a straight-line run of steps
/// ending at a terminator, kCall, kExtCall or kFellOff. The rest_* fields
/// give what is left of the segment from this step on: entering a segment
/// charges its first step's rest once, and a trap hands its own back.
struct Step {
  Op op = Op::kFellOff;
  std::uint8_t width = 8;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t obj = 0;  // object indices; out-of-range ones name the
  std::uint16_t obj2 = 0;  // missing slot after the last object
  std::uint32_t rest_instrs = 0;  // IR instructions, this one included
  std::int64_t imm = 0;  // kBr/kBrIf: taken step; kCall/kFellOff: function
  std::uint64_t rest_cycles = 0;  // static scalar cycles, this one included
  std::uint32_t alt = 0;  // kBrIf: not-taken step; kMixChain*: rounds
  // kMixChain*: which of its round's d0..d3 the fused step writes back
  // (bit i for di), set by set_store_masks.
  std::uint8_t store = 0;
};
static_assert(sizeof(Step) == 40, "the store mask uses Step's padding");

/// A Program decoded for one cost model: every function's blocks laid out
/// in one step array with branch targets resolved to step indices, static
/// costs folded into segment totals and mix rounds fused, plus what
/// execution needs of the functions and objects (with each function's
/// zero list), so Machines never read the Program again.
struct DecodedProgram {
  struct Function {
    std::uint32_t entry = 0;
    std::uint16_t num_regs = 0;
    std::string name;
    // Registers some path from the entry reads before writing: the only
    // ones a new frame must zero.
    std::vector<std::uint16_t> zero;
  };
  struct Object {
    std::string name;
    MemScope scope = MemScope::kGlobal;
    Bytes size = 0;
    std::vector<std::uint8_t> initial_data;  // local objects only
    std::uint32_t read = 0;  // cycles per access in the object's region
    std::uint32_t write = 0;
  };

  CostModel cost;  // the scalar costs folded in
  std::uint64_t fingerprint = 0;
  std::uint64_t parse_cycles = 0;
  std::uint32_t dispatch_function = 0;
  std::vector<Function> functions;
  std::vector<Object> objects;  // then the missing slot
  std::vector<Step> steps;
};

namespace {

bool ends_segment(Op op) {
  switch (op) {
    case Op::kExtCall:
    case Op::kBr:
    case Op::kBrIf:
    case Op::kCall:
    case Op::kRet:
    case Op::kFellOff:
      return true;
    default:
      return false;
  }
}

// Static scalar cycles of one instruction. The bulk intrinsics' inner
// loops depend on run-time lengths and are charged when they run.
std::uint64_t scalar_cycles(const Instr& in, const CostModel& c,
                            const DecodedProgram::Object& obj) {
  switch (in.op) {
    case Opcode::kDivU:
    case Opcode::kRemU:
      return c.alu_cycles * 8;  // iterative divide on NPUs
    case Opcode::kFxMul:
    case Opcode::kSelect:
      return c.alu_cycles * 2;
    case Opcode::kLoadHdr:
    case Opcode::kLoadMatch:
      return c.hdr_cycles;
    case Opcode::kLoadBody:
    case Opcode::kRespByte:
    case Opcode::kRespWord:
      return c.body_cycles;
    case Opcode::kLoad:
      return c.alu_cycles + obj.read;
    case Opcode::kStore:
      return c.alu_cycles + obj.write;
    case Opcode::kExtCall:
      return c.ext_call_cycles;
    case Opcode::kBr:
    case Opcode::kBrIf:
    case Opcode::kRet:
      return c.branch_cycles;
    case Opcode::kCall:
      return c.call_cycles;
    default:
      return c.alu_cycles;  // ALU ops, and the intrinsics' issue cost
  }
}

bool same_scalar_costs(const CostModel& a, const CostModel& b) {
  return a.alu_cycles == b.alu_cycles && a.branch_cycles == b.branch_cycles &&
         a.call_cycles == b.call_cycles && a.hdr_cycles == b.hdr_cycles &&
         a.body_cycles == b.body_cycles &&
         a.ext_call_cycles == b.ext_call_cycles &&
         a.region_read == b.region_read && a.region_write == b.region_write;
}

// Everything decode() reads of a Program, hashed: asserts-on builds
// compare it on every cache hit to catch a Program edited in place.
std::uint64_t fingerprint(const Program& program) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(program.dispatch_function);
  mix(program.parsed_fields.size());
  for (const MemObject& obj : program.objects) {
    mix(obj.size);
    mix(static_cast<std::uint64_t>(obj.scope));
    mix(static_cast<std::uint64_t>(obj.region));
    mix(fnv1a(obj.initial_data.data(), obj.initial_data.size()));
  }
  for (const Function& fn : program.functions) {
    mix(fn.num_regs);
    mix(fn.blocks.size());
    for (const BasicBlock& block : fn.blocks) {
      mix(block.instrs.size());
      for (const Instr& in : block.instrs) {
        mix(static_cast<std::uint64_t>(in.op) | std::uint64_t{in.dst} << 8 |
            std::uint64_t{in.a} << 24 | std::uint64_t{in.b} << 40 |
            std::uint64_t{in.width} << 56);
        mix(static_cast<std::uint64_t>(in.imm));
        mix(in.obj | std::uint64_t{in.obj2} << 16);
      }
    }
  }
  return h;
}

// The length of the mix round at steps[i], or 0 when none starts there. A
// round is `mul_imm d0 <- x, M; shr d1 <- x, k; xor d2 <- {d0, d1}`, then
// `add_imm d3 <- d2, c` when the next step is one. Each operand must read
// what sequential execution would: d0 != x and k != d0 (shr reads x and k
// after d0 is written), d1 != d0 (xor reads both after d1 is written).
std::uint32_t mix_round_length(const std::vector<Step>& steps, std::size_t i) {
  // Every function's steps end in a kFellOff, so i + 3 is in range once
  // steps[i + 2] is a kXor.
  const Step& mul = steps[i];
  if (mul.op != Op::kMulImm) return 0;
  const Step& shr = steps[i + 1];
  if (shr.op != Op::kShr || shr.a != mul.a || mul.dst == mul.a ||
      shr.b == mul.dst || shr.dst == mul.dst) {
    return 0;
  }
  const Step& x = steps[i + 2];
  if (x.op != Op::kXor || !((x.a == mul.dst && x.b == shr.dst) ||
                            (x.a == shr.dst && x.b == mul.dst))) {
    return 0;
  }
  const Step& add = steps[i + 3];
  return add.op == Op::kAddImm && add.a == x.dst ? 4 : 3;
}

// Superinstructions. Marks the head of every mix round in steps
// [first, end) kMixChain3 or kMixChain4 and sets its `alt` to the rounds
// in its chain: the round continues into the next one when that one starts
// right after it, has its length, takes its last dst as x and shifts by
// the same k register, and the round does not write k. A chain's steps sit
// inside one segment, and nothing else changes, so charging, traps and
// resume points do not move. Back to front, so each head's count includes
// the rest of its chain.
void fuse_mix_rounds(std::vector<Step>& steps, std::size_t first,
                     std::size_t end) {
  for (std::size_t i = end; i-- > first;) {
    const std::uint32_t len = mix_round_length(steps, i);
    if (len == 0) continue;
    const Op op = len == 3 ? Op::kMixChain3 : Op::kMixChain4;
    const std::uint16_t k = steps[i + 1].b;
    bool writes_k = false;
    for (std::size_t j = i; j < i + len; ++j) writes_k |= steps[j].dst == k;
    const Step& next = steps[i + len];
    Step& head = steps[i];
    head.alt = next.op == op && next.a == steps[i + len - 1].dst &&
                       steps[i + len + 1].b == k && !writes_k
                   ? next.alt + 1
                   : 1;
    head.op = op;
  }
}

// Sets the store mask of every fused round of `fn`, whose block bi starts
// at steps[block_start[bi]]. A chain reads only its first x and k from the
// register file, and the rest of its reads from machine registers, so
// live-in(chain) = (live-out(chain) - its writes) + {x, k}, and a round
// writes back its di only when di is live after the chain and no later
// step of the chain writes it again.
void set_store_masks(const Function& fn, const Liveness& live,
                     const std::vector<std::uint32_t>& block_start,
                     std::vector<Step>& steps) {
  std::vector<std::pair<std::size_t, std::size_t>> chains;  // [start, stop)
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    const std::vector<Instr>& instrs = fn.blocks[bi].instrs;
    Step* const s = steps.data() + block_start[bi];  // one per instruction
    const auto round = [s](std::size_t i) -> std::size_t {
      return s[i].op == Op::kMixChain3 ? 3 : 4;
    };
    const std::size_t end = block_end(fn.blocks[bi]);
    chains.clear();
    for (std::size_t i = 0; i < end; ++i) {
      if (s[i].op == Op::kMixChain3 || s[i].op == Op::kMixChain4) {
        chains.emplace_back(i, i + round(i) * s[i].alt);
        i = chains.back().second - 1;
      }
    }
    RegSet after = live.live_out[bi];
    for (std::size_t i = end; i > 0;) {
      if (chains.empty() || chains.back().second != i) {
        const Instr& in = instrs[--i];
        if (writes_dst(in.op)) after.reset(in.dst);
        for_each_read(in, [&after](std::uint32_t reg) { after.set(reg); });
        continue;
      }
      const auto [start, stop] = chains.back();
      chains.pop_back();
      for (std::size_t j = stop; j-- > start;) {
        if (!after.test(s[j].dst)) continue;
        const std::size_t pos = (j - start) % round(start);
        s[j - pos].store |= static_cast<std::uint8_t>(1u << pos);
        after.reset(s[j].dst);
      }
      after.set(s[start].a);
      after.set(s[start + 1].b);
      i = start;
    }
  }
}

// Runs the chain of mix rounds headed at `ip` and returns its last step.
// The accumulator and the shift amount stay in machine registers, and a
// round writes back only the d0..d3 its store mask names.
template <std::uint32_t kLen>
const Step* run_mix_chain(const Step* ip, std::uint64_t* r) {
  const std::uint64_t k = r[ip[1].b] & 63;
  std::uint64_t x = r[ip->a];
  const Step* const end = ip + kLen * ip->alt;
  for (; ip != end; ip += kLen) {
    const std::uint64_t m = x * static_cast<std::uint64_t>(ip[0].imm);
    const std::uint64_t h = x >> k;
    x = m ^ h;
    if constexpr (kLen == 4) x += static_cast<std::uint64_t>(ip[3].imm);
    if (const std::uint8_t store = ip->store; store != 0) {
      if (store & 1) r[ip[0].dst] = m;
      if (store & 2) r[ip[1].dst] = h;
      if (store & 4) r[ip[2].dst] = m ^ h;
      if constexpr (kLen == 4) {
        if (store & 8) r[ip[3].dst] = x;
      }
    }
  }
  return end - 1;
}

std::shared_ptr<const DecodedProgram> decode(const Program& program,
                                             const CostModel& cost) {
  auto code = std::make_shared<DecodedProgram>();
  code->cost = cost;
  code->fingerprint = fingerprint(program);
  code->parse_cycles = cost.hdr_cycles * program.parsed_fields.size();
  code->dispatch_function = program.dispatch_function;
  for (const MemObject& obj : program.objects) {
    DecodedProgram::Object& o = code->objects.emplace_back();
    o.name = obj.name;
    o.scope = obj.scope;
    o.size = obj.size;
    if (obj.scope == MemScope::kLocal) o.initial_data = obj.initial_data;
    o.read = cost.region_read[static_cast<int>(obj.region)];
    o.write = cost.region_write[static_cast<int>(obj.region)];
  }
  const auto missing = static_cast<std::uint16_t>(program.objects.size());
  code->objects.push_back({"?", MemScope::kGlobal, 0, {}, 0, 0});
  const auto object = [&](std::uint16_t index) {
    return index < missing ? index : missing;
  };

  std::vector<Step>& steps = code->steps;
  std::vector<std::uint64_t> own;  // each step's own scalar cycles
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const Function& fn = program.functions[f];
    const auto first = static_cast<std::uint32_t>(steps.size());
    code->functions.push_back({first, fn.num_regs, fn.name, {}});
    Step fell_off;
    fell_off.imm = static_cast<std::int64_t>(f);
    std::vector<std::uint32_t> block_start(fn.blocks.size());
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      block_start[bi] = static_cast<std::uint32_t>(steps.size());
      const std::vector<Instr>& instrs = fn.blocks[bi].instrs;
      for (const Instr& in : instrs) {
        Step& s = steps.emplace_back();
        s.op = static_cast<Op>(in.op);
        s.width = in.width;
        s.dst = in.dst;
        s.a = in.a;
        s.b = in.b;
        s.obj = object(in.obj);
        s.obj2 = object(in.obj2);
        s.imm = in.imm;
        own.push_back(scalar_cycles(in, cost, code->objects[s.obj]));
      }
      if (instrs.empty() || !is_terminator(instrs.back().op)) {
        steps.push_back(fell_off);
        own.push_back(0);
      }
    }
    // A function without blocks enters here, and branches to blocks that
    // do not exist land here.
    const auto bad = static_cast<std::uint32_t>(steps.size());
    steps.push_back(fell_off);
    own.push_back(0);
    const auto target = [&](std::int64_t block) -> std::uint32_t {
      return block >= 0 && static_cast<std::size_t>(block) < block_start.size()
                 ? block_start[static_cast<std::size_t>(block)]
                 : bad;
    };
    for (std::uint32_t i = first; i < bad; ++i) {
      Step& s = steps[i];
      if (s.op == Op::kBr) {
        s.imm = target(s.imm);
      } else if (s.op == Op::kBrIf) {
        s.alt = target(s.b);
        s.imm = target(s.imm);
      }
    }
    fuse_mix_rounds(steps, first, bad);
    const Liveness live = liveness(fn);
    set_store_masks(fn, live, block_start, steps);
    if (!fn.blocks.empty()) {
      std::vector<std::uint16_t>& zero = code->functions.back().zero;
      live.live_in[0].for_each([&](std::uint32_t reg) {
        if (reg < fn.num_regs) zero.push_back(static_cast<std::uint16_t>(reg));
      });
    }
  }
  for (std::size_t i = steps.size(); i-- > 0;) {
    Step& s = steps[i];
    s.rest_cycles = own[i];
    s.rest_instrs = s.op == Op::kFellOff ? 0 : 1;
    if (!ends_segment(s.op)) {
      s.rest_cycles += steps[i + 1].rest_cycles;
      s.rest_instrs += steps[i + 1].rest_instrs;
    }
  }
  return code;
}

std::shared_ptr<const DecodedProgram> decoded(const Program& program,
                                              const CostModel& cost) {
  auto code = program.decoded.find_or_add(
      [&](const DecodedProgram& d) { return same_scalar_costs(d.cost, cost); },
      [&] { return decode(program, cost); });
  assert(code->fingerprint == fingerprint(program) &&
         "Program edited in place after decoding: call decoded.clear()");
  return code;
}

// A new frame zeroes only the registers `fn` may read before writing; the
// rest keep what an earlier frame left, which no step reads. Asserts-on
// builds first fill the whole frame with a poison word, so a register the
// zero list misses reads as garbage in every test, not as the zero a
// fresh arena happens to hold.
constexpr std::uint64_t kRegisterPoison = 0xBAD0BAD0BAD0BAD0ull;

void enter_frame(std::uint64_t* frame, const DecodedProgram::Function& fn) {
#ifndef NDEBUG
  std::fill_n(frame, fn.num_regs, kRegisterPoison);
#endif
  for (const std::uint16_t reg : fn.zero) frame[reg] = 0;
}

}  // namespace

CostModel CostModel::npu() {
  CostModel m;
  m.frequency_hz = 633e6;
  m.runtime_factor = 1.0;
  m.region_read = {1, 30, 90, 150};
  m.region_write = {1, 30, 90, 150};
  m.bulk_divisor = 4;   // NFP bulk DMA engines
  m.ext_call_cycles = 60;
  return m;
}

CostModel CostModel::host_native() {
  CostModel m;
  m.frequency_hz = 2.0e9;  // Xeon Gold 5117 base clock (§6.1.2)
  m.runtime_factor = 1.0;
  // Caches flatten the hierarchy; everything looks ~L2-resident.
  m.region_read = {1, 1, 2, 4};
  m.region_write = {1, 1, 2, 4};
  m.bulk_divisor = 16;  // SIMD copy/convert loops
  m.ext_call_cycles = 400;  // socket write through libc
  return m;
}

CostModel CostModel::host_python() {
  CostModel m = host_native();
  // The baseline backends run lambdas behind a Python service (§6.1.1,
  // footnote 7): CPython costs ~400x per scalar op (each IR op lowers to
  // several bytecodes at ~100-200 ns each) and ~85x on bulk loops (the
  // paper's lambdas iterate per pixel/word in Python).
  m.runtime_factor = 400.0;
  m.bulk_factor = 85.0;
  return m;
}

ObjectStore::ObjectStore(const Program& program)
    : objects_(program.objects.size()) {
  // Each object starts on a 16-byte boundary, the alignment a heap buffer
  // of its own would have.
  constexpr std::size_t kAlign = 16;
  const auto align = [](std::size_t n, std::size_t to) {
    return (n + to - 1) / to * to;
  };
  std::size_t end = 0;
  for (const MemObject& obj : program.objects) {
    if (obj.scope == MemScope::kGlobal) end = align(end, kAlign) + obj.size;
  }
  if (end > 0) {
    mapped_bytes_ = align(end, static_cast<std::size_t>(sysconf(_SC_PAGESIZE)));
    void* mapping = mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapping == MAP_FAILED) throw std::bad_alloc();
    mapping_ = static_cast<std::uint8_t*>(mapping);
  }
  std::size_t at = 0;
  for (std::size_t i = 0; i < program.objects.size(); ++i) {
    const MemObject& obj = program.objects[i];
    if (obj.scope != MemScope::kGlobal) continue;
    at = align(at, kAlign);
    std::uint8_t* const bytes = mapping_ + at;  // null only when end == 0
    objects_[i] = std::span<std::uint8_t>(bytes, obj.size);
    const auto n = std::min<std::size_t>(obj.initial_data.size(), obj.size);
    if (n > 0) std::memcpy(bytes, obj.initial_data.data(), n);
    at += obj.size;
    total_bytes_ += obj.size;
  }
}

ObjectStore::~ObjectStore() {
  if (mapping_ != nullptr) munmap(mapping_, mapped_bytes_);
}

std::uint64_t ObjectStore::hash(std::size_t object, std::uint64_t off,
                                const std::uint8_t* bytes, std::uint64_t len) {
  if (len > kHashMemoMaxBytes) return fnv1a(bytes, len);
  HashMemo& m = memo_[hash_memo_slot(object, off, len)];
  if (m.object == object && m.off == off && m.bytes.size() == len &&
      (len == 0 || std::memcmp(m.bytes.data(), bytes, len) == 0)) {
    ++hash_hits_;
    return m.hash;
  }
  m.object = object;
  m.off = off;
  m.bytes.assign(bytes, bytes + len);
  m.hash = fnv1a(bytes, len);
  return m.hash;
}

Machine::Machine(const Program& program, const CostModel& cost,
                 ObjectStore* globals)
    : code_(decoded(program, cost)), cost_(cost), globals_(globals) {
  stack_.reserve(kMaxCallDepth);
}

Machine::~Machine() = default;

Outcome Machine::run(const Invocation& invocation) {
  return run_function(code_->dispatch_function, invocation);
}

Outcome Machine::run_function(std::size_t function_index,
                              const Invocation& invocation) {
  const DecodedProgram& code = *code_;
  assert(function_index < code.functions.size());
  invocation_ = &invocation;
  suspended_ = false;
  // Likely as long as the last one: reserve it once, up front, on
  // storage a dropped payload gave back when finish() handed the last
  // response over. Doing it here rather than in finish() keeps idle
  // pooled Machines empty.
  if (response_.capacity() == 0) {
    response_ = recycled_bytes(last_response_size_);
  } else {
    response_.clear();
    response_.reserve(last_response_size_);
  }
  // Charge the generated parser (header identification + extraction).
  cycles_ = code.parse_cycles;
  bulk_cycles_ = 0;
  instructions_ = 0;

  // Local objects get fresh backing; globals live in the ObjectStore.
  const std::size_t n = code.objects.size() - 1;
  locals_.resize(n);
  objects_.assign(n + 1, ObjectView{});
  for (std::size_t i = 0; i < n; ++i) {
    const DecodedProgram::Object& obj = code.objects[i];
    if (obj.scope == MemScope::kLocal) {
      std::vector<std::uint8_t>& bytes = locals_[i];
      bytes.assign(obj.size, 0);
      const auto len = std::min<std::size_t>(obj.initial_data.size(), obj.size);
      if (len > 0) std::memcpy(bytes.data(), obj.initial_data.data(), len);
      objects_[i] = ObjectView{bytes.data(), bytes.size(), true};
    } else if (globals_ != nullptr) {
      const std::span<std::uint8_t> bytes = globals_->data(i);
      objects_[i] = ObjectView{bytes.data(), bytes.size(), true};
    }
  }

  const DecodedProgram::Function& fn = code.functions[function_index];
  if (regs_.size() < fn.num_regs) regs_.resize(fn.num_regs);
  enter_frame(regs_.data(), fn);
  stack_.clear();
  stack_.push_back(Frame{0, fn.num_regs, 0, 0});
  return execute(code.steps.data() + fn.entry);
}

Outcome Machine::resume(std::uint64_t reply) {
  assert(suspended_);
  suspended_ = false;
  // The kExtCall is still pending: deliver the reply into its dst
  // register and continue after it.
  const Step* ext = code_->steps.data() + pc_;
  assert(ext->op == Op::kExtCall);
  regs_[stack_.back().base + ext->dst] = reply;
  return execute(ext + 1);
}

void Machine::abort() {
  suspended_ = false;
  stack_.clear();
  invocation_ = nullptr;
}

Outcome Machine::trap_at(const Step& in, std::string message) {
  // The whole segment was charged on entry. Give back this instruction's
  // cycles and everything after it; the instruction itself still counts,
  // as it did when every instruction was counted before it ran.
  cycles_ -= in.rest_cycles;
  instructions_ -= in.rest_instrs - 1;
  return trap(std::move(message));
}

Outcome Machine::trap_out_of_bounds(const Step& in, const char* what,
                                    std::uint16_t object) {
  return trap_at(in, std::string(what) + " out of bounds in object '" +
                         code_->objects[object].name + "'");
}

Outcome Machine::trap(std::string message) {
  Outcome out;
  out.state = RunState::kTrap;
  out.trap_message = std::move(message);
  out.cycles = scaled_cycles();
  out.instructions = instructions_;
  stack_.clear();
  suspended_ = false;
  return out;
}

Outcome Machine::finish(std::uint64_t return_value) {
  Outcome out;
  out.state = RunState::kDone;
  out.return_value = return_value;
  last_response_size_ = response_.size();
  out.response = std::move(response_);
  out.cycles = scaled_cycles();
  out.instructions = instructions_;
  stack_.clear();
  suspended_ = false;
  return out;
}

// Slow segment entry, taken when charging the whole segment could pass
// the fuel limit. Fuel is checked before each instruction (cycles so far
// > fuel traps), so find the first instruction whose check fails. If none
// does, charge the segment as usual and run it in place. Otherwise run the
// instructions before it from fuel_tail_, which ends in kFuelOut, so they
// take effect and the trap reports exact counts. A mix chain may run past
// the cut, so the tail runs its rounds one step at a time. Returns where
// to run from, or nullptr when the very first check fails.
const Step* Machine::enter_exhausting(const Step* ip) {
  const Step* cut = ip;
  while (cycles_ + (ip->rest_cycles - cut->rest_cycles) <= fuel_) {
    if (ends_segment(cut->op)) {
      cycles_ += ip->rest_cycles;
      instructions_ += ip->rest_instrs;
      return ip;
    }
    ++cut;
  }
  if (cut == ip) return nullptr;
  fuel_tail_.assign(ip, cut);
  for (Step& s : fuel_tail_) {
    if (s.op == Op::kMixChain3 || s.op == Op::kMixChain4) s.op = Op::kMulImm;
    s.rest_cycles -= cut->rest_cycles;
    s.rest_instrs -= cut->rest_instrs;
  }
  Step out;
  out.op = Op::kFuelOut;
  fuel_tail_.push_back(out);
  cycles_ += ip->rest_cycles - cut->rest_cycles;
  instructions_ += ip->rest_instrs - cut->rest_instrs;
  return fuel_tail_.data();
}

Outcome Machine::execute(const Step* ip) {
  const DecodedProgram& code = *code_;
  const Step* const steps = code.steps.data();
  const Invocation& inv = *invocation_;
  const std::uint8_t* const body = inv.body.data();
  const std::uint64_t body_len = inv.body.size();
  const ObjectView* const objects = objects_.data();
  std::uint64_t* r = regs_.data() + stack_.back().base;

  while (true) {
    // Enter the segment at ip: charge all of it up front.
    if (cycles_ + ip->rest_cycles > fuel_) {
      ip = enter_exhausting(ip);
      if (ip == nullptr) return trap("fuel exhausted (compute limit)");
    } else {
      cycles_ += ip->rest_cycles;
      instructions_ += ip->rest_instrs;
    }

    // Straight-line steps `continue` to the next one; control steps set
    // ip to the next segment and `break` out of the switch.
    for (;; ++ip) {
      const Step& in = *ip;
      switch (in.op) {
        case Op::kConst:
          r[in.dst] = static_cast<std::uint64_t>(in.imm);
          continue;
        case Op::kMov: r[in.dst] = r[in.a]; continue;
        case Op::kAdd: r[in.dst] = r[in.a] + r[in.b]; continue;
        case Op::kSub: r[in.dst] = r[in.a] - r[in.b]; continue;
        case Op::kMul: r[in.dst] = r[in.a] * r[in.b]; continue;
        case Op::kDivU:
          if (r[in.b] == 0) return trap_at(in, "division by zero");
          r[in.dst] = r[in.a] / r[in.b];
          continue;
        case Op::kRemU:
          if (r[in.b] == 0) return trap_at(in, "remainder by zero");
          r[in.dst] = r[in.a] % r[in.b];
          continue;
        case Op::kAnd: r[in.dst] = r[in.a] & r[in.b]; continue;
        case Op::kOr: r[in.dst] = r[in.a] | r[in.b]; continue;
        case Op::kXor: r[in.dst] = r[in.a] ^ r[in.b]; continue;
        case Op::kShl: r[in.dst] = r[in.a] << (r[in.b] & 63); continue;
        case Op::kShr: r[in.dst] = r[in.a] >> (r[in.b] & 63); continue;
        case Op::kAddImm:
          r[in.dst] = r[in.a] + static_cast<std::uint64_t>(in.imm);
          continue;
        case Op::kMulImm:
          r[in.dst] = r[in.a] * static_cast<std::uint64_t>(in.imm);
          continue;
        case Op::kMixChain3: ip = run_mix_chain<3>(ip, r); continue;
        case Op::kMixChain4: ip = run_mix_chain<4>(ip, r); continue;
        case Op::kFxMul: {
          // Q16.16 multiply (fixed-point substitute for float, §3.1b).
          const std::int64_t a = static_cast<std::int32_t>(r[in.a]);
          const std::int64_t b = static_cast<std::int32_t>(r[in.b]);
          r[in.dst] = static_cast<std::uint64_t>(
              static_cast<std::uint32_t>((a * b) >> 16));
          continue;
        }
        case Op::kCmpEq: r[in.dst] = r[in.a] == r[in.b]; continue;
        case Op::kCmpNe: r[in.dst] = r[in.a] != r[in.b]; continue;
        case Op::kCmpLtU: r[in.dst] = r[in.a] < r[in.b]; continue;
        case Op::kCmpLeU: r[in.dst] = r[in.a] <= r[in.b]; continue;
        case Op::kCmpEqImm:
          r[in.dst] = r[in.a] == static_cast<std::uint64_t>(in.imm);
          continue;
        case Op::kSelect:
          r[in.dst] = r[in.a] ? r[in.b] : r[static_cast<std::uint16_t>(in.imm)];
          continue;

        case Op::kLoadHdr:
          r[in.dst] = inv.headers.fields[static_cast<std::size_t>(in.imm)];
          continue;
        case Op::kLoadBody: {
          const std::uint64_t off = r[in.a] + static_cast<std::uint64_t>(in.imm);
          if (off >= body_len) return trap_at(in, "request body read past end");
          r[in.dst] = body[off];
          continue;
        }
        case Op::kBodyLen: r[in.dst] = body_len; continue;
        case Op::kLoadMatch: {
          const auto idx = static_cast<std::size_t>(in.imm);
          if (idx >= inv.match_data.size()) {
            return trap_at(in, "match_data out of range");
          }
          r[in.dst] = inv.match_data[idx];
          continue;
        }

        case Op::kLoad: {
          const ObjectView& o = objects[in.obj];
          const std::uint64_t off = r[in.a] + static_cast<std::uint64_t>(in.imm);
          if (!o.present || out_of_range(off, in.width, o.size)) {
            return trap_at(in, "out-of-bounds load from object '" +
                                   code.objects[in.obj].name + "' at offset " +
                                   std::to_string(off));
          }
          std::uint64_t v = 0;
          std::memcpy(&v, o.data + off, in.width);
          r[in.dst] = v;
          continue;
        }
        case Op::kStore: {
          const ObjectView& o = objects[in.obj];
          const std::uint64_t off = r[in.a] + static_cast<std::uint64_t>(in.imm);
          if (!o.present || out_of_range(off, in.width, o.size)) {
            return trap_at(in, "out-of-bounds store to object '" +
                                   code.objects[in.obj].name + "' at offset " +
                                   std::to_string(off));
          }
          std::memcpy(o.data + off, &r[in.b], in.width);
          continue;
        }

        case Op::kRespByte:
          if (response_.size() >= kMaxResponse) {
            return trap_at(in, "response too large");
          }
          response_.push_back(static_cast<std::uint8_t>(r[in.a]));
          continue;
        case Op::kRespWord: {
          if (response_.size() + 8 > kMaxResponse) {
            return trap_at(in, "response too large");
          }
          const std::uint64_t v = r[in.a];
          std::uint8_t word[8];
          for (int i = 0; i < 8; ++i) {
            word[i] = static_cast<std::uint8_t>(v >> (8 * i));
          }
          response_.insert(response_.end(), word, word + 8);
          continue;
        }
        case Op::kRespMem: {
          const ObjectView& o = objects[in.obj];
          const std::uint64_t off = r[in.a];
          const std::uint64_t len = r[in.b];
          if (!o.present || out_of_range(off, len, o.size)) {
            return trap_out_of_bounds(in, "response copy", in.obj);
          }
          if (response_.size() + len > kMaxResponse) {
            return trap_at(in, "response too large");
          }
          response_.insert(response_.end(), o.data + off, o.data + off + len);
          const std::uint64_t words = (len + 7) / 8;
          bulk_cycles_ += words * code.objects[in.obj].read /
                              cost_.bulk_divisor + words;
          continue;
        }

        case Op::kMemCpy: {
          const ObjectView& dst = objects[in.obj];
          const ObjectView& src = objects[in.obj2];
          const std::uint64_t doff = r[in.dst];
          const std::uint64_t soff = r[in.a];
          const std::uint64_t len = r[in.b];
          if (!dst.present || out_of_range(doff, len, dst.size)) {
            return trap_out_of_bounds(in, "memcpy", in.obj);
          }
          if (!src.present || out_of_range(soff, len, src.size)) {
            return trap_out_of_bounds(in, "memcpy", in.obj2);
          }
          // An empty object's data pointer is null, which memmove must not
          // get even for zero bytes.
          if (len != 0) std::memmove(dst.data + doff, src.data + soff, len);
          const std::uint64_t words = (len + 7) / 8;
          bulk_cycles_ += words *
                              (code.objects[in.obj2].read +
                               code.objects[in.obj].write) /
                              cost_.bulk_divisor +
                          words;
          continue;
        }
        case Op::kGrayscale: {
          const ObjectView& dst = objects[in.obj];
          const ObjectView& src = objects[in.obj2];
          const std::uint64_t doff = r[in.dst];
          const std::uint64_t soff = r[in.a];
          const std::uint64_t pixels = r[in.b];
          if (!dst.present || out_of_range(doff, pixels, dst.size)) {
            return trap_out_of_bounds(in, "grayscale", in.obj);
          }
          if (!src.present || soff > src.size ||
              pixels > (src.size - soff) / 4) {
            return trap_out_of_bounds(in, "grayscale", in.obj2);
          }
          grayscale(dst.data + doff, src.data + soff, pixels);
          bulk_cycles_ += pixels *
                              (code.objects[in.obj2].read +
                               code.objects[in.obj].write) /
                              cost_.bulk_divisor +
                          pixels * 6 * cost_.alu_cycles;
          continue;
        }
        case Op::kHash: {
          const ObjectView& o = objects[in.obj];
          const std::uint64_t off = r[in.a];
          const std::uint64_t len = r[in.b];
          if (!o.present || out_of_range(off, len, o.size)) {
            return trap_out_of_bounds(in, "hash", in.obj);
          }
          r[in.dst] = globals_ != nullptr
                          ? globals_->hash(in.obj, off, o.data + off, len)
                          : fnv1a(o.data + off, len);
          const std::uint64_t words = (len + 7) / 8;
          bulk_cycles_ +=
              words * (code.objects[in.obj].read + 2 * cost_.alu_cycles);
          continue;
        }
        case Op::kBodyCopy: {
          const ObjectView& dst = objects[in.obj];
          const std::uint64_t doff = r[in.dst];
          const std::uint64_t boff = r[in.a];
          const std::uint64_t len = r[in.b];
          if (!dst.present || out_of_range(doff, len, dst.size)) {
            return trap_out_of_bounds(in, "body copy", in.obj);
          }
          if (out_of_range(boff, len, body_len)) {
            return trap_at(in, "body copy past the end of the request body");
          }
          if (len != 0) {  // an empty body's data pointer is null
            std::memcpy(dst.data + doff, body + boff, len);
          }
          const std::uint64_t words = (len + 7) / 8;
          bulk_cycles_ += words *
                              (cost_.body_cycles / 4 +
                               code.objects[in.obj].write) /
                              cost_.bulk_divisor +
                          words;
          continue;
        }

        case Op::kExtCall: {
          Outcome out;
          out.state = RunState::kYield;
          out.ext.kind = in.imm;
          out.ext.key = r[in.a];
          out.ext.value = r[in.b];
          out.cycles = scaled_cycles();
          out.instructions = instructions_;
          suspended_ = true;
          pc_ = static_cast<std::uint32_t>(ip - steps);  // resume() steps past
          return out;
        }

        case Op::kBr:
          ip = steps + in.imm;
          break;
        case Op::kBrIf:
          ip = steps + (r[in.a] != 0 ? static_cast<std::uint32_t>(in.imm)
                                     : in.alt);
          break;
        case Op::kCall: {
          if (stack_.size() >= kMaxCallDepth) {
            return trap_at(in,
                           "call depth limit (recursion unsupported on NPUs)");
          }
          const DecodedProgram::Function& callee =
              code.functions[static_cast<std::size_t>(in.imm)];
          const std::uint32_t base = stack_.back().top;
          const std::uint32_t top = base + callee.num_regs;
          if (regs_.size() < top) regs_.resize(top);
          r = regs_.data() + stack_.back().base;  // the arena may have moved
          std::uint64_t* next = regs_.data() + base;
          enter_frame(next, callee);
          const std::uint16_t args = std::min(in.b, callee.num_regs);
          for (std::uint16_t i = 0; i < args; ++i) next[i] = r[in.a + i];
          stack_.push_back(Frame{
              base, top, static_cast<std::uint32_t>(ip - steps) + 1, in.dst});
          r = next;
          ip = steps + callee.entry;
          break;
        }
        case Op::kRet: {
          const std::uint64_t value = r[in.a];
          const Frame done = stack_.back();
          stack_.pop_back();
          if (stack_.empty()) return finish(value);
          r = regs_.data() + stack_.back().base;
          r[done.ret_dst] = value;
          ip = steps + done.ret_pc;
          break;
        }
        case Op::kFellOff:
          return trap("fell off the end of a block in '" +
                      code.functions[static_cast<std::size_t>(in.imm)].name +
                      "'");
        case Op::kFuelOut:
          return trap("fuel exhausted (compute limit)");
      }
      break;
    }
  }
}

Deployment::Deployment(std::shared_ptr<const Program> program,
                       const CostModel& cost)
    : program_(std::move(program)), cost_(cost), globals_(*program_) {
  idle_.push_back(std::make_unique<Machine>(*program_, cost_, &globals_));
}

std::unique_ptr<Machine> Deployment::acquire() {
  if (idle_.empty()) {
    return std::make_unique<Machine>(*program_, cost_, &globals_);
  }
  std::unique_ptr<Machine> machine = std::move(idle_.back());
  idle_.pop_back();
  return machine;
}

void Deployment::release(std::unique_ptr<Machine> machine) {
  if (machine) idle_.push_back(std::move(machine));
}

}  // namespace lnic::microc
