// Micro-C interpreter with cycle accounting.
//
// The same IR executes on every backend; what differs is the CostModel —
// NPU cores (633 MHz, far-memory latencies, hardware bulk engines) versus
// host CPUs (2 GHz, cache-friendly, but behind an interpreted language
// runtime for the bare-metal/container backends, §6.1.1). Each invocation
// yields a byte-accurate response payload *and* the cycle count that the
// simulation converts into service time, so compiler optimizations
// (§5.1) and memory placement (D2) change measured latency exactly as on
// the real NIC.
//
// kExtCall suspends the machine (paper D3: lambdas issue RPCs to external
// services); the backend performs the call over the simulated network and
// resume()s with the reply.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"
#include "microc/ir.h"

namespace lnic::microc {

/// Per-backend execution cost parameters.
struct CostModel {
  double frequency_hz = 633e6;  // NPU core clock (§6.1.2)
  /// Multiplier on scalar instruction costs, modelling the language
  /// runtime in front of the workload (the paper's host backends run a
  /// Python service; λ-NIC runs native firmware). 1 = native.
  double runtime_factor = 1.0;
  /// Multiplier on bulk intrinsic costs (memcpy/grayscale/hash inner
  /// loops). Pure-Python pixel loops pay close to runtime_factor; C
  /// library calls pay ~1. The paper's lambdas loop in Python.
  double bulk_factor = 1.0;

  std::uint32_t alu_cycles = 1;
  std::uint32_t branch_cycles = 1;
  std::uint32_t call_cycles = 5;
  std::uint32_t hdr_cycles = 1;     // pre-parsed header access
  std::uint32_t body_cycles = 8;    // packet-buffer (CTM) byte access
  std::uint32_t ext_call_cycles = 60;  // build/send the outgoing RPC

  /// Cycles per access by MemRegion (indexed by static_cast<int>).
  std::array<std::uint32_t, 4> region_read{1, 30, 90, 150};
  std::array<std::uint32_t, 4> region_write{1, 30, 90, 150};

  /// Bulk-transfer divisor for kMemCpy/kGrayscale memory traffic (DMA
  /// engines on the NIC, SIMD on hosts).
  std::uint32_t bulk_divisor = 4;

  /// ASIC-based SmartNIC NPU core (Netronome Agilio CX-like).
  static CostModel npu();
  /// Host CPU running native code.
  static CostModel host_native();
  /// Host CPU behind the OpenFaaS-style Python service (§6.1.1).
  static CostModel host_python();

  SimDuration cycles_to_duration(std::uint64_t cycles) const {
    return static_cast<SimDuration>(static_cast<double>(cycles) /
                                    frequency_hz * 1e9);
  }
};

/// Pre-parsed header values handed to the lambda (EXTRACTED_HEADERS_T).
struct HeaderValues {
  std::array<std::uint64_t, kHdrFieldCount> fields{};
};

/// One request to a deployed program.
struct Invocation {
  HeaderValues headers;
  /// Request payload / RDMA region: a zero-copy view into the packet
  /// buffer (the Machine only reads it, as NIC firmware reads CTM).
  BufferView body;
  std::vector<std::uint64_t> match_data; // MATCH_DATA_T
};

/// External call emitted by kExtCall. kind: 0 = GET, 1 = SET.
struct ExtRequest {
  std::int64_t kind = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

enum class RunState { kDone, kYield, kTrap };

/// Largest response a lambda may emit; a resp_* past it traps.
constexpr std::size_t kMaxResponse = 32ull << 20;

struct Outcome {
  RunState state = RunState::kTrap;
  std::uint64_t return_value = 0;         // valid when kDone
  std::vector<std::uint8_t> response;     // deparse-stage payload
  std::uint64_t cycles = 0;               // cumulative, incl. runtime_factor
  std::uint64_t instructions = 0;         // dynamic instruction count
  ExtRequest ext;                         // valid when kYield
  std::string trap_message;               // valid when kTrap
};

/// 64-bit FNV-1a of `len` bytes: the value of kHash. P4 lowering
/// precomputes match constants with it, so they equal the runtime hashes.
/// Ranges of 512 bytes or more take an exact AVX-512 kernel where the CPU
/// has one (microc/fnv1a.cc).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len);

/// What fnv1a's vector kernel needs that this CPU or build lacks: its
/// missing CPU features, space-separated, or a note that the build has no
/// kernel. Empty when the kernel runs.
std::string fnv1a_kernel_missing();

/// Persistent global-object storage for one deployed program instance
/// ("global objects persist state across runs", §4.1). Every global
/// object lives in one anonymous private mapping, laid out in object
/// order and rounded up to whole pages; only `initial_data` is copied
/// in. Pages no lambda writes stay unbacked zero pages, so a program that
/// declares megabytes of EMEM buffers costs only the pages it touches.
/// The interpreter's range checks are the only guard on these bytes:
/// there are no allocator redzones between objects. Local-scope objects
/// get fresh zeroed backing per invocation inside the Machine. The store
/// also memoizes kHash for every Machine bound to it.
class ObjectStore {
 public:
  explicit ObjectStore(const Program& program);
  ~ObjectStore();
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// A global object's bytes; empty for a local-scope object.
  std::span<std::uint8_t> data(std::size_t object_index) {
    return objects_[object_index];
  }
  std::span<const std::uint8_t> data(std::size_t object_index) const {
    return objects_[object_index];
  }
  /// Declared bytes of every global object (what the NIC models), not
  /// the page-rounded mapping.
  Bytes total_bytes() const { return total_bytes_; }

  /// FNV-1a of the `len` bytes at `bytes`, which are object `object`'s
  /// bytes from offset `off` (kHash). A range hashed before is answered
  /// from a small memo while its bytes still compare equal to the copy
  /// taken then, so the result is exact whatever wrote to the object in
  /// between, and no write path has to report to the memo.
  std::uint64_t hash(std::size_t object, std::uint64_t off,
                     const std::uint8_t* bytes, std::uint64_t len);
  /// hash() calls answered from the memo.
  std::uint64_t hash_hits() const { return hash_hits_; }

 private:
  struct HashMemo {
    std::size_t object = SIZE_MAX;  // none yet
    std::uint64_t off = 0;
    std::vector<std::uint8_t> bytes;  // the range's bytes when hashed
    std::uint64_t hash = 0;
  };

  std::uint8_t* mapping_ = nullptr;  // null when no global has bytes
  std::size_t mapped_bytes_ = 0;
  std::vector<std::span<std::uint8_t>> objects_;  // one per program object
  Bytes total_bytes_ = 0;
  std::array<HashMemo, 16> memo_;  // direct-mapped
  std::uint64_t hash_hits_ = 0;
};

struct Step;  // one decoded instruction (interp.cc)

class Machine {
 public:
  /// `globals` may be null when the program declares no global objects.
  /// The Machine keeps no reference to `program`: it shares the program's
  /// decoded form for `cost`, decoded by the first Machine that needs it
  /// and cached on the Program (Program::decoded).
  Machine(const Program& program, const CostModel& cost, ObjectStore* globals);
  ~Machine();

  /// Starts an invocation at the program's dispatch (match-stage)
  /// function. Charges the parser cost for program.parsed_fields.
  Outcome run(const Invocation& invocation);

  /// Starts at an explicit function (unit tests, direct lambda calls).
  Outcome run_function(std::size_t function_index,
                       const Invocation& invocation);

  /// Continues after a kYield outcome; `reply` lands in the kExtCall dst.
  Outcome resume(std::uint64_t reply);

  /// Aborts a suspended invocation (e.g. external call timed out).
  void abort();

  bool suspended() const { return suspended_; }

  /// Cycle budget per invocation; exceeding it traps (runaway guard;
  /// serverless workloads have strict compute limits, §2.1).
  void set_fuel(std::uint64_t cycles) { fuel_ = cycles; }

 private:
  struct Frame {
    std::uint32_t base = 0;    // first register of this frame in regs_
    std::uint32_t top = 0;     // one past its last register
    std::uint32_t ret_pc = 0;  // caller step a kRet continues at
    std::uint16_t ret_dst = 0;  // caller register receiving the return value
  };
  /// An object's bytes for the current invocation; `present` is false
  /// for a global object run without an ObjectStore.
  struct ObjectView {
    std::uint8_t* data = nullptr;
    std::uint64_t size = 0;
    bool present = false;
  };

  Outcome execute(const Step* ip);
  const Step* enter_exhausting(const Step* ip);
  Outcome trap_at(const Step& in, std::string message);
  /// trap_at() for a range outside `object`, naming it.
  Outcome trap_out_of_bounds(const Step& in, const char* what,
                             std::uint16_t object);
  Outcome trap(std::string message);
  Outcome finish(std::uint64_t return_value);
  std::uint64_t scaled_cycles() const {
    return static_cast<std::uint64_t>(
        static_cast<double>(cycles_) * cost_.runtime_factor +
        static_cast<double>(bulk_cycles_) * cost_.bulk_factor);
  }

  std::shared_ptr<const DecodedProgram> code_;
  CostModel cost_;
  ObjectStore* globals_;

  // Invocation state.
  const Invocation* invocation_ = nullptr;
  std::vector<std::vector<std::uint8_t>> locals_;  // per local-scope object
  std::vector<ObjectView> objects_;  // every object, then a missing slot
  std::vector<std::uint64_t> regs_;  // register arena; frames stack upward
  std::vector<Frame> stack_;
  std::vector<Step> fuel_tail_;  // steps run before fuel runs out
  std::vector<std::uint8_t> response_;
  std::size_t last_response_size_ = 0;  // of the last finished invocation
  std::uint32_t pc_ = 0;           // the pending kExtCall while suspended
  std::uint64_t cycles_ = 0;       // scalar instruction cycles
  std::uint64_t bulk_cycles_ = 0;  // intrinsic inner-loop cycles
  std::uint64_t instructions_ = 0;
  std::uint64_t fuel_ = 1ull << 40;
  bool suspended_ = false;
};

/// One deployed program instance: the program, its global objects, and
/// the Machines bound to both that are idle. A backend takes a Machine per
/// request and gives it back when the request finishes, so register files
/// and local-object buffers are allocated per concurrent request, not per
/// request. The program is shared: every Deployment of one Program (each
/// NIC of a pool running the same firmware) uses one decoded form per
/// cost model (Program::decoded), while each keeps its own globals.
/// Requests hold the Deployment they started on by shared_ptr: one parked
/// on kExtCall when new firmware is deployed finishes on the code and
/// globals it started with, and its global writes are dropped with that
/// instance.
class Deployment {
 public:
  Deployment(std::shared_ptr<const Program> program, const CostModel& cost);

  const Program& program() const { return *program_; }
  const ObjectStore& globals() const { return globals_; }

  /// An idle Machine, or a new one when every Machine is busy.
  std::unique_ptr<Machine> acquire();
  /// Returns a Machine from acquire() once its invocation has finished.
  void release(std::unique_ptr<Machine> machine);

 private:
  std::shared_ptr<const Program> program_;
  CostModel cost_;
  ObjectStore globals_;
  std::vector<std::unique_ptr<Machine>> idle_;
};

}  // namespace lnic::microc
