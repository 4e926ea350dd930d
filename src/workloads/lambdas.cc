#include "workloads/lambdas.h"

#include <algorithm>
#include <cassert>

#include "microc/builder.h"
#include "microc/frontend.h"

namespace lnic::workloads {

using microc::AccessPattern;
using microc::FunctionBuilder;
using microc::MemScope;
using microc::PlacementHint;
using microc::ProgramBuilder;
using microc::Reg;

namespace {

// Register-resident mixing rounds: the "business logic" bulk of each
// lambda. Placement-independent (no memory traffic), so code size scales
// with the unroll factor while stratification only affects real objects.
Reg emit_mix_rounds(FunctionBuilder& fb, Reg seed, int rounds,
                    std::uint64_t multiplier) {
  Reg c13 = fb.const_u64(13);
  Reg acc = seed;
  for (int i = 0; i < rounds; ++i) {
    Reg mixed = fb.mul_imm(acc, static_cast<std::int64_t>(multiplier));
    Reg shifted = fb.shr(acc, c13);
    Reg x = fb.xor_(mixed, shifted);
    acc = fb.add_imm(x, i + 1);
  }
  return acc;
}

// Dead debug scaffolding users leave behind; DCE removes it.
void emit_dead_debug(FunctionBuilder& fb, int rounds) {
  Reg v = fb.const_u64(0xDEB6);
  for (int i = 0; i < rounds; ++i) v = fb.add_imm(v, i);
}

// The duplicated boilerplate helper body. Every copy must be emitted by
// this one routine so the bodies are literally identical (register
// allocation included) and lambda coalescing can merge them.
std::uint32_t emit_boilerplate_helper(ProgramBuilder& pb,
                                      const std::string& name, int rounds,
                                      std::uint64_t multiplier) {
  auto fb = pb.function(name, 1);
  Reg c7 = fb.const_u64(7);
  Reg acc = fb.arg(0);
  for (int i = 0; i < rounds; ++i) {
    Reg m = fb.mul_imm(acc, static_cast<std::int64_t>(multiplier));
    Reg s = fb.shr(acc, c7);
    acc = fb.xor_(m, s);
  }
  fb.ret(acc);
  return fb.finish();
}

std::string make_page(std::uint32_t index) {
  std::string page;
  const std::string stamp =
      "LNIC-PAGE-" + std::to_string(index) + " interactive serverless ";
  while (page.size() < kWebPageBytes) page += stamp;
  page.resize(kWebPageBytes);
  return page;
}

/// Writes `v` little-endian at `at`; the caller sizes `out` beforehand.
void put_word(std::vector<std::uint8_t>& out, std::size_t at,
              std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

WorkloadBundle make_standard_workloads(Scale scale, std::uint32_t image_width,
                                       std::uint32_t image_height) {
  assert(scale.image_tiles > 0);
  WorkloadBundle bundle;
  bundle.image_width = image_width;
  bundle.image_height = image_height;

  ProgramBuilder pb("standard-workloads");

  // ---- Web content object (read-mostly; stratifies into CTM). ----
  std::vector<std::uint8_t> content_bytes;
  for (std::uint32_t p = 0; p < kWebPageCount; ++p) {
    const std::string page = make_page(p);
    bundle.web_pages.push_back(page);
    content_bytes.insert(content_bytes.end(), page.begin(), page.end());
  }
  const auto content =
      pb.object("web_content", kWebPageCount * kWebPageBytes, MemScope::kGlobal,
                AccessPattern::kReadMostly, PlacementHint::kHot);
  pb.program().objects[content].initial_data = std::move(content_bytes);

  // ---- Image objects (large; stratify into IMEM, §6.4). ----
  const Bytes image_bytes =
      static_cast<Bytes>(image_width) * image_height * 4;
  const auto image_buf =
      pb.object("image_buf", image_bytes, MemScope::kGlobal,
                AccessPattern::kReadWrite);
  const auto gray_buf =
      pb.object("gray_buf", image_bytes / 4, MemScope::kGlobal,
                AccessPattern::kWriteMostly);
  // Per-lambda statistics counters (persist across runs, §4.1).
  const auto stats_obj = pb.object("request_counters", 64, MemScope::kGlobal,
                                   AccessPattern::kReadWrite,
                                   PlacementHint::kHot);

  // ---- Duplicated boilerplate helpers (coalescing fodder, §6.4). ----
  const auto reply_fmt_web =
      emit_boilerplate_helper(pb, "reply_fmt_web", scale.helper_rounds,
                              0x9E3779B97F4A7C15ull);
  const auto reply_fmt_img =
      emit_boilerplate_helper(pb, "reply_fmt_img", scale.helper_rounds,
                              0x9E3779B97F4A7C15ull);
  const auto query_fmt_get =
      emit_boilerplate_helper(pb, "query_fmt_get", scale.helper_rounds,
                              0xC2B2AE3D27D4EB4Full);
  const auto query_fmt_set =
      emit_boilerplate_helper(pb, "query_fmt_set", scale.helper_rounds,
                              0xC2B2AE3D27D4EB4Full);

  // ---- a. Web server (Listing 2's shape). ----
  {
    auto fb = pb.function("web_server", 0);
    emit_dead_debug(fb, scale.dead_rounds);
    Reg op = fb.load_hdr(microc::kHdrOp);
    Reg mask = fb.const_u64(kWebPageCount - 1);
    Reg page = fb.and_(op, mask);
    Reg off = fb.mul_imm(page, kWebPageBytes);
    // Bump the per-lambda request counter (global state).
    Reg zero = fb.const_u64(0);
    Reg count = fb.load(stats_obj, zero);
    fb.store(stats_obj, zero, fb.add_imm(count, 1));
    // Content integrity check + response personalization rounds.
    Reg page_len = fb.const_u64(kWebPageBytes);
    Reg digest = fb.hash(content, off, page_len);
    Reg mixed = emit_mix_rounds(fb, digest, scale.web_mix_rounds,
                                0x9DDFEA08EB382D69ull);
    Reg tag = fb.call(reply_fmt_web, {mixed});
    fb.resp_word(tag);
    fb.resp_mem(content, off, page_len);
    fb.ret_imm(p4::kReturnForward);
    fb.finish();
  }

  // ---- b1. Key-value client, GET-heavy (§6.2b). ----
  {
    auto fb = pb.function("kv_client_get", 0);
    emit_dead_debug(fb, scale.dead_rounds);
    Reg key = fb.load_hdr(microc::kHdrKey);
    Reg derived = emit_mix_rounds(fb, key, scale.kv_mix_rounds,
                                  0xC2B2AE3D27D4EB4Full);
    Reg query_tag = fb.call(query_fmt_get, {derived});
    Reg zero = fb.const_u64(0);
    Reg c8 = fb.const_u64(8);
    Reg count = fb.load(stats_obj, c8);
    fb.store(stats_obj, c8, fb.add_imm(count, 1));
    Reg reply = fb.ext_call(/*GET=*/0, key, zero);
    Reg post = emit_mix_rounds(fb, reply, scale.kv_post_rounds,
                               0x2545F4914F6CDD1Dull);
    Reg customized = fb.xor_(post, query_tag);
    fb.resp_word(reply);       // the raw cached value
    fb.resp_word(customized);  // the customized payload
    fb.ret_imm(p4::kReturnForward);
    fb.finish();
  }

  // ---- b2. Key-value client, SET-heavy. ----
  {
    auto fb = pb.function("kv_client_set", 0);
    emit_dead_debug(fb, scale.dead_rounds);
    Reg key = fb.load_hdr(microc::kHdrKey);
    Reg value = fb.load_hdr(microc::kHdrValue);
    Reg derived = emit_mix_rounds(fb, value, scale.kv_mix_rounds,
                                  0xC2B2AE3D27D4EB4Full);
    Reg query_tag = fb.call(query_fmt_set, {derived});
    Reg c16 = fb.const_u64(16);
    Reg count = fb.load(stats_obj, c16);
    fb.store(stats_obj, c16, fb.add_imm(count, 1));
    Reg reply = fb.ext_call(/*SET=*/1, key, value);
    Reg post = emit_mix_rounds(fb, reply, scale.kv_post_rounds,
                               0x2545F4914F6CDD1Dull);
    Reg customized = fb.xor_(post, query_tag);
    fb.resp_word(reply);
    fb.resp_word(customized);
    fb.ret_imm(p4::kReturnForward);
    fb.finish();
  }

  // ---- c. Image transformer (RGBA -> grayscale, §6.2c). ----
  {
    auto fb = pb.function("image_transformer", 0);
    emit_dead_debug(fb, scale.dead_rounds);
    Reg w = fb.load_hdr(microc::kHdrImageWidth);
    Reg h = fb.load_hdr(microc::kHdrImageHeight);
    Reg pixels = fb.mul(w, h);
    Reg zero = fb.const_u64(0);
    Reg c24 = fb.const_u64(24);
    Reg count = fb.load(stats_obj, c24);
    fb.store(stats_obj, c24, fb.add_imm(count, 1));
    // Pull the pixel payload (after the 8-byte dimensions word) out of
    // the RDMA-staged body into lambda memory.
    Reg c2 = fb.const_u64(2);
    Reg rgba_len = fb.shl(pixels, c2);
    Reg c8 = fb.const_u64(8);
    fb.body_copy(image_buf, zero, c8, rgba_len);
    // Tiled conversion across the NIC's bulk engines.
    Reg tiles = fb.const_u64(static_cast<std::uint64_t>(scale.image_tiles));
    Reg tile_px = fb.divu(pixels, tiles);
    for (int t = 0; t < scale.image_tiles; ++t) {
      Reg t_c = fb.const_u64(static_cast<std::uint64_t>(t));
      Reg dst = fb.mul(tile_px, t_c);
      Reg src = fb.shl(dst, c2);
      fb.grayscale(gray_buf, dst, image_buf, src, tile_px);
    }
    Reg rem = fb.remu(pixels, tiles);
    Reg base = fb.mul(tile_px, tiles);
    Reg rsrc = fb.shl(base, c2);
    fb.grayscale(gray_buf, base, image_buf, rsrc, rem);
    // Post-processing rounds over a sample digest + shared reply helper.
    Reg sample_len = fb.const_u64(4096);
    Reg digest = fb.hash(gray_buf, zero, sample_len);
    Reg mixed = emit_mix_rounds(fb, digest, scale.image_mix_rounds,
                                0x9DDFEA08EB382D69ull);
    fb.call(reply_fmt_img, {mixed});
    fb.resp_mem(gray_buf, zero, pixels);
    fb.ret_imm(p4::kReturnForward);
    fb.finish();
  }

  bundle.lambdas = pb.take();

  bundle.spec.tables.push_back(p4::make_lambda_table("web_server", kWebServerId));
  bundle.spec.tables.push_back(p4::make_lambda_table("kv_client_get", kKvGetId));
  bundle.spec.tables.push_back(p4::make_lambda_table("kv_client_set", kKvSetId));
  bundle.spec.tables.push_back(
      p4::make_lambda_table("image_transformer", kImageId));
  bundle.spec.tables.push_back(p4::make_route_table("web_server", kWebServerId));
  bundle.spec.tables.push_back(p4::make_route_table("kv_client_get", kKvGetId));
  bundle.spec.tables.push_back(p4::make_route_table("kv_client_set", kKvSetId));
  bundle.spec.tables.push_back(
      p4::make_route_table("image_transformer", kImageId));
  return bundle;
}

WorkloadBundle make_nic_kv_store(std::uint32_t slots_log2) {
  assert(slots_log2 >= 2 && slots_log2 <= 20);
  const std::uint64_t slots = 1ull << slots_log2;
  constexpr std::uint64_t kSlotBytes = 24;  // key(8) value(8) state(8)
  constexpr std::int64_t kMaxProbes = 32;

  WorkloadBundle bundle;
  ProgramBuilder pb("nic-kv-store");
  const auto table =
      pb.object("kv_table", slots * kSlotBytes, MemScope::kGlobal,
                AccessPattern::kReadWrite);

  auto fb = pb.function("kv_store", 0);
  // Entry block: hash the key, set up the probe cursor.
  Reg op = fb.load_hdr(microc::kHdrOp);
  Reg key = fb.load_hdr(microc::kHdrKey);
  Reg value = fb.load_hdr(microc::kHdrValue);
  // Fibonacci hashing, then mask to the table.
  Reg h = fb.mul_imm(key, static_cast<std::int64_t>(0x9E3779B97F4A7C15ull));
  Reg c29 = fb.const_u64(64 - slots_log2);
  Reg idx0 = fb.shr(h, c29);
  // Probe state lives in registers carried across blocks.
  Reg idx = fb.mov(idx0);
  Reg probes = fb.const_u64(0);
  Reg mask = fb.const_u64(slots - 1);
  Reg one = fb.const_u64(1);
  Reg is_set = fb.cmp_eq_imm(op, 1);

  const auto probe = fb.block();     // loop header
  const auto check_key = fb.block();
  const auto found = fb.block();
  const auto empty = fb.block();
  const auto next = fb.block();
  const auto exhausted = fb.block();
  fb.select_block(0);
  fb.br(probe);

  // probe: if probes >= kMaxProbes -> exhausted; else inspect the slot.
  fb.select_block(probe);
  Reg limit = fb.const_u64(kMaxProbes);
  Reg keep_going = fb.cmp_ltu(probes, limit);
  fb.br_if(keep_going, check_key, exhausted);

  // check_key: state==0 -> empty; key match -> found; else next.
  fb.select_block(check_key);
  Reg base = fb.mul_imm(idx, kSlotBytes);
  Reg state = fb.load(table, base, 16);
  const auto have_entry = fb.block();
  fb.select_block(check_key);
  fb.br_if(state, have_entry, empty);
  fb.select_block(have_entry);
  Reg slot_key = fb.load(table, base, 0);
  Reg match = fb.cmp_eq(slot_key, key);
  fb.br_if(match, found, next);

  // next: advance the cursor and loop.
  fb.select_block(next);
  Reg advanced = fb.and_(fb.add(idx, one), mask);
  fb.mov_to(idx, advanced);
  Reg bumped = fb.add(probes, one);
  fb.mov_to(probes, bumped);
  fb.br(probe);

  // found: GET returns the stored value; SET overwrites it.
  fb.select_block(found);
  Reg fbase = fb.mul_imm(idx, kSlotBytes);
  const auto fset = fb.block();
  const auto fget = fb.block();
  fb.select_block(found);
  fb.br_if(is_set, fset, fget);
  fb.select_block(fset);
  fb.store(table, fbase, value, 8);
  fb.resp_word(value);
  fb.ret_imm(p4::kReturnForward);
  fb.select_block(fget);
  Reg stored = fb.load(table, fbase, 8);
  fb.resp_word(stored);
  fb.ret_imm(p4::kReturnForward);

  // empty: SET inserts here; GET misses (returns 0).
  fb.select_block(empty);
  Reg ebase = fb.mul_imm(idx, kSlotBytes);
  const auto eset = fb.block();
  const auto emiss = fb.block();
  fb.select_block(empty);
  fb.br_if(is_set, eset, emiss);
  fb.select_block(eset);
  fb.store(table, ebase, key, 0);
  fb.store(table, ebase, value, 8);
  fb.store(table, ebase, one, 16);
  fb.resp_word(value);
  fb.ret_imm(p4::kReturnForward);
  fb.select_block(emiss);
  Reg zero = fb.const_u64(0);
  fb.resp_word(zero);
  fb.ret_imm(p4::kReturnForward);

  // exhausted: probe budget spent — miss for GET, failure for SET.
  fb.select_block(exhausted);
  Reg zero2 = fb.const_u64(0);
  fb.resp_word(zero2);
  fb.ret_imm(2);
  fb.finish();

  bundle.lambdas = pb.take();
  bundle.spec.tables.push_back(p4::make_lambda_table("kv_store", kNicKvStoreId));
  bundle.spec.tables.push_back(p4::make_route_table("kv_store", kNicKvStoreId));
  return bundle;
}

WorkloadBundle make_stream_aggregator(std::uint32_t sensors_log2) {
  assert(sensors_log2 >= 1 && sensors_log2 <= 16);
  const std::uint64_t sensors = 1ull << sensors_log2;
  // Per-sensor slab: 8 samples (64 B) + cursor (8 B) + count (8 B).
  const std::uint64_t slab = 80;
  const std::string source =
      "global u8 windows[" + std::to_string(sensors * slab) + "];\n"
      "int stream_aggregate() {\n"
      "  var sensor = hdr(key) & " + std::to_string(sensors - 1) + ";\n"
      "  var sample = hdr(value);\n"
      "  var base = sensor * 80;\n"
      "  var cursor = load8(windows, base + 64);\n"
      "  var count = load8(windows, base + 72);\n"
      "  store8(windows, base + cursor * 8, sample);\n"
      "  cursor = (cursor + 1) % 8;\n"
      "  store8(windows, base + 64, cursor);\n"
      "  if (count < 8) { count = count + 1; store8(windows, base + 72, count); }\n"
      "  var i = 0;\n"
      "  var sum = 0;\n"
      "  var mn = 0;\n"
      "  var mx = 0;\n"
      "  var first = 1;\n"
      "  while (i < count) {\n"
      "    var v = load8(windows, base + i * 8);\n"
      "    sum = sum + v;\n"
      "    if (first == 1) { mn = v; mx = v; first = 0; }\n"
      "    if (v < mn) { mn = v; }\n"
      "    if (v > mx) { mx = v; }\n"
      "    i = i + 1;\n"
      "  }\n"
      "  resp_word(sum);\n"
      "  resp_word(mn);\n"
      "  resp_word(mx);\n"
      "  resp_word(count);\n"
      "  return 0;\n"
      "}\n";
  auto program = microc::compile_microc(source, "stream-aggregator");
  assert(program.ok());
  WorkloadBundle bundle;
  bundle.lambdas = std::move(program).value();
  bundle.spec.tables.push_back(
      p4::make_lambda_table("stream_aggregate", kStreamId));
  bundle.spec.tables.push_back(
      p4::make_route_table("stream_aggregate", kStreamId));
  return bundle;
}

WorkloadBundle make_web_farm(std::uint32_t count, Scale scale) {
  WorkloadBundle bundle;
  ProgramBuilder pb("web-farm");
  for (std::uint32_t n = 0; n < count; ++n) {
    // Distinct content per lambda (different tenants' pages).
    std::vector<std::uint8_t> content_bytes;
    for (std::uint32_t p = 0; p < kWebPageCount; ++p) {
      std::string page = make_page(n * kWebPageCount + p);
      if (n == 0) bundle.web_pages.push_back(page);
      content_bytes.insert(content_bytes.end(), page.begin(), page.end());
    }
    const auto content = pb.object(
        "web_content_" + std::to_string(n), kWebPageCount * kWebPageBytes,
        MemScope::kGlobal, AccessPattern::kReadMostly, PlacementHint::kHot);
    pb.program().objects[content].initial_data = std::move(content_bytes);

    const std::string name = "web_server_" + std::to_string(n);
    auto fb = pb.function(name, 0);
    emit_dead_debug(fb, scale.dead_rounds);
    Reg op = fb.load_hdr(microc::kHdrOp);
    Reg mask = fb.const_u64(kWebPageCount - 1);
    Reg page = fb.and_(op, mask);
    Reg off = fb.mul_imm(page, kWebPageBytes);
    Reg page_len = fb.const_u64(kWebPageBytes);
    Reg digest = fb.hash(content, off, page_len);
    Reg mixed = emit_mix_rounds(fb, digest, scale.web_mix_rounds,
                                0x9DDFEA08EB382D69ull + n);
    fb.resp_word(mixed);
    fb.resp_mem(content, off, page_len);
    fb.ret_imm(p4::kReturnForward);
    fb.finish();

    const WorkloadId wid = n + 1;
    bundle.spec.tables.push_back(p4::make_lambda_table(name, wid));
    bundle.spec.tables.push_back(p4::make_route_table(name, wid));
  }
  bundle.lambdas = pb.take();
  return bundle;
}

const std::string& expected_web_page(const WorkloadBundle& bundle,
                                     std::uint64_t op) {
  return bundle.web_pages[op & (kWebPageCount - 1)];
}

std::vector<std::uint8_t> encode_web_request(std::uint64_t op) {
  std::vector<std::uint8_t> body(8);
  put_word(body, 0, op);
  return body;
}

std::vector<std::uint8_t> encode_kv_request(std::uint64_t key,
                                            std::uint64_t value) {
  std::vector<std::uint8_t> body(24);
  put_word(body, 0, 0);
  put_word(body, 8, key);
  put_word(body, 16, value);
  return body;
}

std::vector<std::uint8_t> encode_kv_store_request(std::uint64_t op,
                                                  std::uint64_t key,
                                                  std::uint64_t value) {
  std::vector<std::uint8_t> body(24);
  put_word(body, 0, op);
  put_word(body, 8, key);
  put_word(body, 16, value);
  return body;
}

std::vector<std::uint8_t> encode_image_request(
    std::uint32_t width, std::uint32_t height,
    const std::vector<std::uint8_t>& rgba) {
  std::vector<std::uint8_t> body(8 + rgba.size());
  put_word(body, 0, static_cast<std::uint64_t>(width) |
                        (static_cast<std::uint64_t>(height) << 16));
  std::copy(rgba.begin(), rgba.end(), body.begin() + 8);
  return body;
}

}  // namespace lnic::workloads
