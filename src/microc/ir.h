// Micro-C intermediate representation.
//
// Lambdas are written (via microc::Builder) against the paper's
// Match+Lambda contract: a top-level function taking parsed headers and
// match data (§4.1, Listing 1), with local and global memory objects in a
// flat virtual address space (§4.2.1 D2). The workload manager compiles a
// set of lambdas plus a P4 match stage into one Program; the interpreter
// (interp.h) executes it with per-region cycle accounting, and the
// compiler passes (src/compiler) transform it.
//
// The IR is a register machine: each function owns registers r0..rN-1
// (64-bit). Memory is accessed through named MemObjects, each placed in
// one physical region (local / CTM / IMEM / EMEM) by the memory
// stratification pass; the *lowered* size of a memory instruction depends
// on that region, mirroring how NFP transfer registers make far-memory
// accesses cost extra instructions.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace lnic::microc {

/// Physical memory region of the SmartNIC hierarchy (paper Fig. 4).
enum class MemRegion : std::uint8_t {
  kLocal,  // per-core local memory, smallest/fastest
  kCtm,    // per-island Cluster Target Memory
  kImem,   // on-chip internal memory, shared
  kEmem,   // external DRAM, largest/slowest
};

const char* to_string(MemRegion region);

/// Capacity budget of each region for one program on the target card
/// (Agilio CX, §6.1.2). Stratification packs objects under the first
/// three; the verifier rejects a program whose objects outgrow EMEM.
constexpr Bytes kLocalCapacity = 4_KiB;    // per-core local memory
constexpr Bytes kCtmCapacity = 256_KiB;    // island CTM share
constexpr Bytes kImemCapacity = 4_MiB;     // on-chip IMEM share
constexpr Bytes kEmemCapacity = 2048_MiB;  // external DRAM, 2 GiB on the card

/// Declared access pattern of a memory object (used by stratification).
enum class AccessPattern : std::uint8_t { kReadMostly, kWriteMostly, kReadWrite };

/// Optional user pragma guiding placement (paper §4.2.1 D2).
enum class PlacementHint : std::uint8_t { kNone, kHot, kCold };

/// Lifetime of a memory object. Globals persist across invocations of the
/// owning lambda (Listing 1: "global objects that persist state across
/// runs"); locals are zero-initialized per invocation.
enum class MemScope : std::uint8_t { kLocal, kGlobal };

struct MemObject {
  std::string name;
  Bytes size = 0;
  MemScope scope = MemScope::kLocal;
  AccessPattern access = AccessPattern::kReadWrite;
  PlacementHint hint = PlacementHint::kNone;
  /// Physical placement; kEmem until stratification runs (naïve layout).
  MemRegion region = MemRegion::kEmem;
  /// Estimated accesses per invocation, filled by program analysis.
  std::uint32_t access_estimate = 1;
  /// Data section: bytes copied into the object at initialization (global
  /// objects) or at each invocation (local objects). May be shorter than
  /// `size`; the remainder is zero.
  std::vector<std::uint8_t> initial_data;
};

enum class Opcode : std::uint8_t {
  // Pure ALU / data movement (dst, a, b, imm as documented per op).
  kConst,    // dst = imm
  kMov,      // dst = r[a]
  kAdd, kSub, kMul, kDivU, kRemU,       // dst = r[a] op r[b]
  kAnd, kOr, kXor, kShl, kShr,          // dst = r[a] op r[b]
  kAddImm,   // dst = r[a] + imm
  kMulImm,   // dst = r[a] * imm
  kFxMul,    // dst = Q16.16 multiply of r[a], r[b] (NPUs lack FPUs, §3.1b)
  kCmpEq, kCmpNe, kCmpLtU, kCmpLeU,     // dst = r[a] cmp r[b] ? 1 : 0
  kCmpEqImm,                            // dst = r[a] == imm ? 1 : 0
  kSelect,   // dst = r[a] ? r[b] : r[imm]   (imm holds a register index)

  // Header / request context access (headers are pre-parsed, §4.1).
  kLoadHdr,   // dst = headers.field[imm]
  kLoadBody,  // dst = request body byte at r[a] + imm (zero-extended)
  kBodyLen,   // dst = request body length
  kLoadMatch, // dst = match_data[imm]

  // Memory (mem = object index in Program::objects via `obj`).
  kLoad,     // dst = width-byte little-endian load mem[r[a] + imm]
  kStore,    // mem[r[a] + imm] = low `width` bytes of r[b]

  // Response construction (the deparse stage emits it, Fig. 3).
  kRespByte,  // append low byte of r[a] to the response payload
  kRespWord,  // append 8-byte little-endian r[a]
  kRespMem,   // append mem[r[a] .. r[a]+r[b]) from object `obj`

  // Intrinsics backed by NIC hardware assists. For kMemCpy/kGrayscale the
  // `dst` field names a register *read* for the destination offset (these
  // ops write memory, not a register): dst offset r[dst], src offset
  // r[a], length/pixel-count r[b].
  kMemCpy,     // copy r[b] bytes: object `obj` <- object `obj2`
  kGrayscale,  // convert r[b] RGBA pixels from `obj2` (offset r[a], 4 B
               // stride) to gray bytes in `obj` (offset r[dst])
  kHash,       // dst = FNV-1a over r[b] bytes of object `obj` at offset r[a]
  kBodyCopy,   // copy r[b] bytes of the request body (offset r[a]) into
               // object `obj` at offset r[dst]

  // External RPC (paper §4.2.1 D3): suspend, issue a call, resume with
  // the reply in dst. kind in imm: 0 = KV GET (key r[a]),
  // 1 = KV SET (key r[a], value r[b]).
  kExtCall,

  // Control flow. Branch targets are block indices within the function.
  kBr,       // jump to block imm
  kBrIf,     // if r[a] != 0 jump to block imm else block b
  kCall,     // dst = call function imm with args r[a..a+b) (b <= 4)
  kRet,      // return r[a]
};

const char* to_string(Opcode op);

/// True when the instruction writes only `dst` and has no other effects
/// (candidate for dead-code elimination).
bool is_pure(Opcode op);
/// True when the instruction ends a basic block.
inline bool is_terminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kBrIf || op == Opcode::kRet;
}
/// True for kLoad/kStore-style ops whose lowered size depends on region.
bool is_memory_op(Opcode op);

struct Instr {
  Opcode op;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::int64_t imm = 0;
  std::uint16_t obj = 0;    // primary memory object operand
  std::uint16_t obj2 = 0;   // secondary object (kMemCpy / kGrayscale src)
  std::uint8_t width = 8;   // access width for kLoad/kStore: 1, 2, 4, 8

  friend bool operator==(const Instr&, const Instr&) = default;
};

struct BasicBlock {
  std::vector<Instr> instrs;
};

struct Function {
  std::string name;
  std::uint16_t num_regs = 8;
  std::uint16_t num_args = 0;
  std::vector<BasicBlock> blocks;  // entry is blocks[0]

  std::size_t instr_count() const;
};

/// Extracted-header fields available to lambdas (EXTRACTED_HEADERS_T).
/// The P4 parser spec lists which of these a program actually parses;
/// match reduction trims unused ones (§5.1).
enum HeaderField : std::uint16_t {
  kHdrWorkloadId = 0,
  kHdrRequestId = 1,
  kHdrSrcNode = 2,
  kHdrOp = 3,        // workload-specific operation selector
  kHdrKey = 4,       // key for key-value style requests
  kHdrValue = 5,     // value for key-value SET requests
  kHdrBodyLen = 6,
  kHdrImageWidth = 7,
  kHdrImageHeight = 8,
  kHdrFieldCount = 9,
};

const char* to_string(HeaderField field);

struct DecodedProgram;  // interp.cc: a Program decoded for one cost model

/// The interpreter's decoded forms of one Program, one per cost model,
/// shared by every Machine built from it. A copied or moved Program
/// starts with an empty cache, and the compiler passes clear it when they
/// edit a Program in place; other code that edits a Program after running
/// it calls clear(). Asserts-on builds check this on every lookup.
class DecodeCache {
 public:
  DecodeCache() = default;
  DecodeCache(const DecodeCache&) {}
  DecodeCache& operator=(const DecodeCache&) {
    clear();
    return *this;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  /// The cached entry `match` accepts, after adding make()'s if none does.
  template <class Match, class Make>
  std::shared_ptr<const DecodedProgram> find_or_add(Match match,
                                                    Make make) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (match(*entry)) return entry;
    }
    entries_.push_back(make());
    return entries_.back();
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<std::shared_ptr<const DecodedProgram>> entries_;
};

/// A complete Match+Lambda program: parser spec + dispatch (match stage)
/// + lambda functions + shared helpers + memory objects.
struct Program {
  std::string name;
  std::vector<Function> functions;
  std::vector<MemObject> objects;

  /// Header fields the generated parser extracts (one extraction
  /// instruction each; match reduction shrinks this set).
  std::vector<HeaderField> parsed_fields;

  /// Index into `functions` of the match-stage dispatcher; entry point of
  /// every invocation. kInvalid (= functions.size()) before assembly.
  std::uint32_t dispatch_function = 0;

  /// workload id -> function index (populated by the workload manager).
  std::vector<std::pair<WorkloadId, std::uint32_t>> lambda_entries;

  std::size_t function_index(const std::string& fn_name) const;
  static constexpr std::size_t kNoFunction = static_cast<std::size_t>(-1);

  DecodeCache decoded;
};

/// Per-instruction lowered size in target instruction-store words.
/// Memory ops cost more in farther regions (transfer-register setup).
std::uint32_t lowered_size(const Instr& instr, const Program& program);

/// Total lowered program size: Σ lowered_size over all functions, plus
/// one word per parsed header field (the generated parser, §4.1).
/// This is the quantity Figure 9 reports and the 16 K-instruction
/// per-core store limits (§6.1.2).
std::uint64_t code_size(const Program& program);

/// Total bytes of all memory objects placed in a given region.
Bytes region_bytes(const Program& program, MemRegion region);

}  // namespace lnic::microc
