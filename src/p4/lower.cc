#include "p4/lower.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <string>

#include "microc/builder.h"
#include "microc/interp.h"

namespace lnic::p4 {

using microc::FunctionBuilder;
using microc::HeaderField;
using microc::Instr;
using microc::MemObject;
using microc::Opcode;
using microc::Program;
using microc::Reg;

namespace {

constexpr const char* kGenPrefix = "__match";

bool is_generated_name(const std::string& name) {
  return name.rfind(kGenPrefix, 0) == 0;
}

// The kHash value of the keys' bytes, precomputed: the lowered dispatch
// compares it with the hash it computes at run time.
std::uint64_t hash_keys(const std::vector<std::uint64_t>& keys) {
  std::vector<std::uint8_t> bytes(keys.size() * 8);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(bytes.data() + i * 8, &keys[i], 8);
  }
  return microc::fnv1a(bytes.data(), bytes.size());
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Adds a generated object directly to the program (bypassing
// ProgramBuilder, which we do not have here).
std::uint16_t add_object(Program& program, std::string name, Bytes size,
                         std::vector<std::uint8_t> data,
                         microc::MemScope scope) {
  MemObject obj;
  obj.name = std::move(name);
  obj.size = size;
  obj.scope = scope;
  obj.access = microc::AccessPattern::kReadMostly;
  obj.region = microc::MemRegion::kEmem;
  obj.initial_data = std::move(data);
  program.objects.push_back(std::move(obj));
  return static_cast<std::uint16_t>(program.objects.size() - 1);
}

// Builds one function directly into `program` using a local builder-like
// helper: we assemble a Function by hand to avoid coupling ProgramBuilder
// to an existing Program. Registers are allocated linearly.
class FnWriter {
 public:
  explicit FnWriter(std::string name) { fn_.name = std::move(name); fn_.blocks.emplace_back(); }

  std::uint16_t reg() { return next_reg_++; }
  std::uint32_t new_block() {
    fn_.blocks.emplace_back();
    return static_cast<std::uint32_t>(fn_.blocks.size() - 1);
  }
  void select(std::uint32_t b) { current_ = b; }
  std::uint32_t current() const { return current_; }

  void emit(Instr in) { fn_.blocks[current_].instrs.push_back(in); }

  std::uint16_t ldhdr(HeaderField f) {
    const auto d = reg();
    emit({.op = Opcode::kLoadHdr, .dst = d, .imm = f});
    return d;
  }
  std::uint16_t ldmatch(std::uint16_t idx) {
    const auto d = reg();
    emit({.op = Opcode::kLoadMatch, .dst = d, .imm = idx});
    return d;
  }
  std::uint16_t cnst(std::uint64_t v) {
    const auto d = reg();
    emit({.op = Opcode::kConst, .dst = d, .imm = static_cast<std::int64_t>(v)});
    return d;
  }
  void store(std::uint16_t obj, std::uint16_t off_reg, std::uint16_t val_reg,
             std::int64_t disp = 0) {
    emit({.op = Opcode::kStore, .a = off_reg, .b = val_reg, .imm = disp,
          .obj = obj, .width = 8});
  }
  std::uint16_t load(std::uint16_t obj, std::uint16_t off_reg,
                     std::int64_t disp = 0) {
    const auto d = reg();
    emit({.op = Opcode::kLoad, .dst = d, .a = off_reg, .imm = disp,
          .obj = obj, .width = 8});
    return d;
  }
  std::uint16_t hash(std::uint16_t obj, std::uint16_t off_reg,
                     std::uint16_t len_reg) {
    const auto d = reg();
    emit({.op = Opcode::kHash, .dst = d, .a = off_reg, .b = len_reg, .obj = obj});
    return d;
  }
  std::uint16_t cmpeq(std::uint16_t a, std::uint16_t b) {
    const auto d = reg();
    emit({.op = Opcode::kCmpEq, .dst = d, .a = a, .b = b});
    return d;
  }
  std::uint16_t cmpeq_imm(std::uint16_t a, std::int64_t imm) {
    const auto d = reg();
    emit({.op = Opcode::kCmpEqImm, .dst = d, .a = a, .imm = imm});
    return d;
  }
  std::uint16_t and_(std::uint16_t a, std::uint16_t b) {
    const auto d = reg();
    emit({.op = Opcode::kAnd, .dst = d, .a = a, .b = b});
    return d;
  }
  std::uint16_t call(std::uint32_t fn_index) {
    const auto d = reg();
    emit({.op = Opcode::kCall, .dst = d, .a = 0, .b = 0,
          .imm = static_cast<std::int64_t>(fn_index)});
    return d;
  }
  void br(std::uint32_t target) { emit({.op = Opcode::kBr, .imm = target}); }
  void br_if(std::uint16_t cond, std::uint32_t t, std::uint32_t f) {
    emit({.op = Opcode::kBrIf, .a = cond, .b = static_cast<std::uint16_t>(f),
          .imm = t});
  }
  void ret(std::uint16_t v) { emit({.op = Opcode::kRet, .a = v}); }
  void ret_imm(std::uint64_t v) { ret(cnst(v)); }

  std::uint32_t finish(Program& program) {
    fn_.num_regs = std::max<std::uint16_t>(next_reg_, 1);
    program.functions.push_back(std::move(fn_));
    return static_cast<std::uint32_t>(program.functions.size() - 1);
  }

 private:
  microc::Function fn_;
  std::uint16_t next_reg_ = 0;
  std::uint32_t current_ = 0;
};

// Emits a naïve per-lambda route helper: marshal (wid, src) keys, hash,
// scan the route table in EMEM, return the route metadata.
std::uint32_t emit_naive_route_helper(Program& program, const Table& routes,
                                      const std::string& lambda_name) {
  // Table object: per entry [key-hash (8B)][metadata (8B)].
  std::vector<std::uint8_t> data;
  for (const auto& entry : routes.entries) {
    append_u64(data, hash_keys(entry.key_values));
    append_u64(data, /*egress metadata=*/entry.key_values.back() + 1);
  }
  const Bytes tbl_size = data.size();
  const auto tbl = add_object(program,
                              std::string(kGenPrefix) + "_rtbl_" + lambda_name,
                              tbl_size, std::move(data), microc::MemScope::kGlobal);
  const auto keybuf = add_object(
      program, std::string(kGenPrefix) + "_rkey_" + lambda_name,
      routes.key_fields.size() * 8, {}, microc::MemScope::kLocal);

  FnWriter w(std::string(kGenPrefix) + "_route_" + lambda_name);
  // Marshal keys.
  const auto zero = w.cnst(0);
  for (std::size_t i = 0; i < routes.key_fields.size(); ++i) {
    const auto v = w.ldhdr(routes.key_fields[i]);
    w.store(keybuf, zero, v, static_cast<std::int64_t>(i * 8));
  }
  const auto len = w.cnst(routes.key_fields.size() * 8);
  const auto khash = w.hash(keybuf, zero, len);

  // Unrolled scan: blocks check_0..check_n, hit_0..hit_n, miss.
  std::vector<std::uint32_t> checks, hits;
  for (std::size_t e = 0; e < routes.entries.size(); ++e) {
    checks.push_back(w.new_block());
    hits.push_back(w.new_block());
  }
  const auto miss = w.new_block();
  w.select(0);
  w.br(checks.empty() ? miss : checks[0]);
  for (std::size_t e = 0; e < routes.entries.size(); ++e) {
    w.select(checks[e]);
    const auto off = w.cnst(e * 16);
    const auto stored = w.load(tbl, off);
    const auto eq = w.cmpeq(stored, khash);
    w.br_if(eq, hits[e], e + 1 < checks.size() ? checks[e + 1] : miss);
    w.select(hits[e]);
    const auto moff = w.cnst(e * 16 + 8);
    const auto meta = w.load(tbl, moff);
    w.ret(meta);
  }
  w.select(miss);
  w.ret_imm(0);
  return w.finish(program);
}

// Emits the single shared route helper used after match reduction: route
// metadata comes in as P4 metadata (match_data[0]) instead of a table.
std::uint32_t emit_reduced_route_helper(Program& program) {
  FnWriter w(std::string(kGenPrefix) + "_route");
  const auto meta = w.ldmatch(0);
  const auto port = w.cmpeq_imm(meta, 0);  // default-route check
  const auto sel = w.reg();
  w.emit({.op = Opcode::kSelect, .dst = sel, .a = port, .b = meta,
          .imm = meta});
  w.ret(sel);
  return w.finish(program);
}

}  // namespace

std::vector<HeaderField> infer_used_fields(const Program& program) {
  std::vector<HeaderField> fields;
  auto add = [&fields](HeaderField f) {
    if (std::find(fields.begin(), fields.end(), f) == fields.end()) {
      fields.push_back(f);
    }
  };
  for (const auto& fn : program.functions) {
    if (is_generated_name(fn.name)) continue;
    for (const auto& block : fn.blocks) {
      for (const auto& in : block.instrs) {
        if (in.op == Opcode::kLoadHdr) {
          add(static_cast<HeaderField>(in.imm));
        }
      }
    }
  }
  return fields;
}

void strip_generated(Program& program) {
  program.decoded.clear();  // edits the program in place
  // Build function index remap (removed -> npos).
  constexpr std::uint32_t kRemoved = 0xFFFFFFFFu;
  std::vector<std::uint32_t> fn_remap(program.functions.size());
  {
    std::vector<microc::Function> kept;
    for (std::size_t i = 0; i < program.functions.size(); ++i) {
      if (is_generated_name(program.functions[i].name)) {
        fn_remap[i] = kRemoved;
      } else {
        fn_remap[i] = static_cast<std::uint32_t>(kept.size());
        kept.push_back(std::move(program.functions[i]));
      }
    }
    program.functions = std::move(kept);
  }
  std::vector<std::uint32_t> obj_remap(program.objects.size());
  {
    std::vector<MemObject> kept;
    for (std::size_t i = 0; i < program.objects.size(); ++i) {
      if (is_generated_name(program.objects[i].name)) {
        obj_remap[i] = kRemoved;
      } else {
        obj_remap[i] = static_cast<std::uint32_t>(kept.size());
        kept.push_back(std::move(program.objects[i]));
      }
    }
    program.objects = std::move(kept);
  }
  // Rewrite references in surviving functions. User lambdas never call
  // generated code or touch generated objects, so remaps must succeed.
  for (auto& fn : program.functions) {
    for (auto& block : fn.blocks) {
      for (auto& in : block.instrs) {
        if (in.op == Opcode::kCall) {
          const auto target = fn_remap[static_cast<std::size_t>(in.imm)];
          assert(target != kRemoved && "user code calls generated function");
          in.imm = target;
        }
        if (microc::is_memory_op(in.op)) {
          in.obj = static_cast<std::uint16_t>(obj_remap[in.obj]);
          if (in.op == Opcode::kMemCpy || in.op == Opcode::kGrayscale) {
            in.obj2 = static_cast<std::uint16_t>(obj_remap[in.obj2]);
          }
        }
      }
    }
  }
  program.lambda_entries.clear();
  program.dispatch_function = 0;
  program.parsed_fields.clear();
}

Status lower_match_stage(const MatchSpec& spec, Program& program,
                         LoweringMode mode) {
  strip_generated(program);

  // Resolve action functions and collect (wid, action, route-table).
  struct LambdaTarget {
    WorkloadId wid;
    std::uint32_t fn_index;
    std::string name;
    const Table* routes = nullptr;
  };
  std::vector<LambdaTarget> targets;
  for (const auto& table : spec.tables) {
    if (table.is_route_table) continue;
    for (const auto& entry : table.entries) {
      const auto idx = program.function_index(entry.action_function);
      if (idx == Program::kNoFunction) {
        return make_error("lower: unknown action function '" +
                          entry.action_function + "'");
      }
      if (entry.key_values.empty()) {
        return make_error("lower: table '" + table.name + "' entry has no key");
      }
      targets.push_back(LambdaTarget{
          static_cast<WorkloadId>(entry.key_values[0]),
          static_cast<std::uint32_t>(idx), entry.action_function, nullptr});
    }
  }
  for (const auto& table : spec.tables) {
    if (!table.is_route_table) continue;
    for (auto& target : targets) {
      if (!table.entries.empty() &&
          table.entries[0].key_values[0] == target.wid) {
        target.routes = &table;
      }
    }
  }

  if (mode == LoweringMode::kNaive) {
    // Per-lambda route helpers first (dispatch references them).
    std::map<WorkloadId, std::uint32_t> route_helpers;
    for (const auto& target : targets) {
      if (target.routes != nullptr) {
        route_helpers[target.wid] =
            emit_naive_route_helper(program, *target.routes, target.name);
      }
    }

    FnWriter w(std::string(kGenPrefix) + "_dispatch");
    // One match table per lambda, scanned in sequence; each is a real
    // hash-and-compare lookup against an EMEM table object.
    struct TableCtx {
      std::uint16_t tbl_obj;
      std::uint16_t keybuf;
      const Table* table;
    };
    std::vector<TableCtx> ctxs;
    for (const auto& table : spec.tables) {
      if (table.is_route_table) continue;
      std::vector<std::uint8_t> data;
      for (const auto& entry : table.entries) {
        append_u64(data, hash_keys(entry.key_values));
        for (auto k : entry.key_values) append_u64(data, k);
      }
      const Bytes size = data.size();
      const auto tbl =
          add_object(program, std::string(kGenPrefix) + "_tbl_" + table.name,
                     size, std::move(data), microc::MemScope::kGlobal);
      const auto keybuf =
          add_object(program, std::string(kGenPrefix) + "_key_" + table.name,
                     table.key_fields.size() * 8, {}, microc::MemScope::kLocal);
      ctxs.push_back(TableCtx{tbl, keybuf, &table});
    }

    // Layout: for each table: marshal block -> per-entry check/hit blocks.
    const std::size_t entry_bytes_base = 8;  // stored hash before keys
    std::vector<std::uint32_t> marshal_blocks;
    for (std::size_t t = 0; t < ctxs.size(); ++t) {
      marshal_blocks.push_back(t == 0 ? 0u : w.new_block());
    }
    const auto miss_block = w.new_block();

    for (std::size_t t = 0; t < ctxs.size(); ++t) {
      const TableCtx& ctx = ctxs[t];
      const auto next_table =
          t + 1 < ctxs.size() ? marshal_blocks[t + 1] : miss_block;
      w.select(marshal_blocks[t]);
      const auto zero = w.cnst(0);
      std::vector<std::uint16_t> hdr_regs;
      for (std::size_t i = 0; i < ctx.table->key_fields.size(); ++i) {
        const auto v = w.ldhdr(ctx.table->key_fields[i]);
        hdr_regs.push_back(v);
        w.store(ctx.keybuf, zero, v, static_cast<std::int64_t>(i * 8));
      }
      const auto len = w.cnst(ctx.table->key_fields.size() * 8);
      const auto khash = w.hash(ctx.keybuf, zero, len);

      std::vector<std::uint32_t> checks, hits;
      for (std::size_t e = 0; e < ctx.table->entries.size(); ++e) {
        checks.push_back(w.new_block());
        hits.push_back(w.new_block());
      }
      w.select(marshal_blocks[t]);
      w.br(checks.empty() ? next_table : checks[0]);

      const std::size_t entry_stride =
          entry_bytes_base + ctx.table->key_fields.size() * 8;
      for (std::size_t e = 0; e < ctx.table->entries.size(); ++e) {
        w.select(checks[e]);
        const auto base = w.cnst(e * entry_stride);
        const auto stored_hash = w.load(ctx.tbl_obj, base);
        auto matched = w.cmpeq(stored_hash, khash);
        for (std::size_t i = 0; i < ctx.table->key_fields.size(); ++i) {
          const auto kv = w.load(ctx.tbl_obj, base,
                                 static_cast<std::int64_t>(8 + i * 8));
          matched = w.and_(matched, w.cmpeq(kv, hdr_regs[i]));
        }
        w.br_if(matched, hits[e],
                e + 1 < checks.size() ? checks[e + 1] : next_table);

        w.select(hits[e]);
        const WorkloadId wid =
            static_cast<WorkloadId>(ctx.table->entries[e].key_values[0]);
        const auto fn_idx =
            program.function_index(ctx.table->entries[e].action_function);
        const auto rc = w.call(static_cast<std::uint32_t>(fn_idx));
        auto it = route_helpers.find(wid);
        if (it != route_helpers.end()) w.call(it->second);
        w.ret(rc);
      }
    }
    w.select(miss_block);
    w.ret_imm(kReturnToHost);  // send_pkt_to_host path
    program.dispatch_function = w.finish(program);

    // The naïve parser extracts every known header field.
    program.parsed_fields.clear();
    for (std::uint16_t f = 0; f < microc::kHdrFieldCount; ++f) {
      program.parsed_fields.push_back(static_cast<HeaderField>(f));
    }
  } else {
    // Reduced: one shared, metadata-parameterized route helper + a single
    // if-else chain over workload IDs.
    const bool any_routes =
        std::any_of(targets.begin(), targets.end(),
                    [](const LambdaTarget& t) { return t.routes != nullptr; });
    std::uint32_t shared_route = 0;
    if (any_routes) shared_route = emit_reduced_route_helper(program);

    FnWriter w(std::string(kGenPrefix) + "_dispatch");
    const auto wid_reg = w.ldhdr(microc::kHdrWorkloadId);
    std::vector<std::uint32_t> checks, hits;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      checks.push_back(i == 0 ? 0u : w.new_block());
      hits.push_back(w.new_block());
    }
    const auto miss = w.new_block();
    for (std::size_t i = 0; i < targets.size(); ++i) {
      w.select(checks[i]);
      const auto eq = w.cmpeq_imm(wid_reg, targets[i].wid);
      w.br_if(eq, hits[i], i + 1 < targets.size() ? checks[i + 1] : miss);
      w.select(hits[i]);
      const auto rc = w.call(targets[i].fn_index);
      if (targets[i].routes != nullptr) w.call(shared_route);
      w.ret(rc);
    }
    w.select(miss);
    w.ret_imm(kReturnToHost);
    program.dispatch_function = w.finish(program);

    // Reduced parser: only fields some lambda reads, plus the workload ID
    // the match stage itself needs.
    program.parsed_fields = infer_used_fields(program);
    if (std::find(program.parsed_fields.begin(), program.parsed_fields.end(),
                  microc::kHdrWorkloadId) == program.parsed_fields.end()) {
      program.parsed_fields.push_back(microc::kHdrWorkloadId);
    }
  }

  program.lambda_entries.clear();
  for (const auto& target : targets) {
    program.lambda_entries.emplace_back(target.wid, target.fn_index);
  }
  return Status::ok_status();
}

}  // namespace lnic::p4
