// 64-bit FNV-1a, the value of kHash. Ranges of 512 bytes or more take an
// exact AVX-512 kernel where the CPU has one; everything else, and every
// range's last < 512 bytes, takes the byte loop. DESIGN §17 derives the
// kernel.
#include <algorithm>
#include <cstdint>
#include <string>

#include "microc/interp.h"

#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define LNIC_FNV1A_AVX512 1
#endif

namespace lnic::microc {
namespace {

constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kPrime = 0x100000001b3ull;  // P = 2^40 + 0x1B3

std::uint64_t fnv1a_loop(std::uint64_t h, const std::uint8_t* data,
                         std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

#ifdef LNIC_FNV1A_AVX512
// The kernel takes whole blocks of 8 rows of 64 bytes, up to 8 blocks
// (4 KiB) per batch.
constexpr std::size_t kBlock = 512;
constexpr std::size_t kMaxBlocks = 8;

// P^m mod 2^64 as four balanced 16-bit digits, sum digit[q] 2^(16 q), each
// in [-2^15, 2^15) so that VPMADDWD multiplies it by a byte difference.
// digit[r][q][e][w] belongs to byte i = 64 r + 2 w + e of a block, whose
// power is P^(512 - i). Constant-initialised, so no call, not even one
// during static initialisation, can read it unset.
struct BlockPowers {
  alignas(64) std::int16_t digit[8][4][2][32];
};
constexpr BlockPowers kBlockPowers = [] {
  BlockPowers t{};
  std::uint64_t power = 1;
  for (std::size_t i = kBlock; i-- > 0;) {
    power *= kPrime;
    std::uint64_t rest = power;
    for (std::size_t q = 0; q < 4; ++q) {
      const auto d = static_cast<std::int16_t>(rest & 0xFFFF);
      t.digit[i / 64][q][i % 2][i % 64 / 2] = d;
      rest = (rest - static_cast<std::uint64_t>(std::int64_t{d})) >> 16;
    }
  }
  return t;
}();
constexpr std::uint64_t kBlockPower = [] {  // P^512
  std::uint64_t p = 1;
  for (std::size_t i = 0; i < kBlock; ++i) p *= kPrime;
  return p;
}();

// A byte-permute index whose byte i is f(i).
struct ByteIndex {
  alignas(64) std::uint8_t at[64];
};
template <typename F>
constexpr ByteIndex byte_index(F f) {
  ByteIndex idx{};
  for (int i = 0; i < 64; ++i) idx.at[i] = static_cast<std::uint8_t>(f(i));
  return idx;
}
// Reverses the bytes of each qword.
constexpr ByteIndex kReverse =
    byte_index([](int i) { return (i & ~7) | (7 - (i & 7)); });
// Byte q of qword k takes byte k of qword q.
constexpr ByteIndex kGather =
    byte_index([](int i) { return (i % 8) * 8 + i / 8; });
// Undoes kGather and reverses each qword, for bit_transpose.
constexpr ByteIndex kScatter =
    byte_index([](int i) { return (7 - i % 8) * 8 + i / 8; });

#define LNIC_FNV1A_TARGET \
  __attribute__((target(  \
      "avx512f,avx512bw,avx512dq,avx512vl,avx512vbmi,gfni")))

LNIC_FNV1A_TARGET inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}
LNIC_FNV1A_TARGET inline __m512i majority(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi64(a, b, c, 0xE8);
}

// The unmasked forms of VPERMB and VPSLLQ trip GCC 12's -Wuninitialized
// on their undefined pass-through operand, so these use the zero-masking
// forms with every lane selected.

// Byte i of the result is byte idx[i] of v.
LNIC_FNV1A_TARGET inline __m512i permute_bytes(__m512i idx, __m512i v) {
  return _mm512_maskz_permutexvar_epi8(~__mmask64{0}, idx, v);
}
LNIC_FNV1A_TARGET inline __m512i shift_left(__m512i x, unsigned n) {
  return _mm512_maskz_slli_epi64(__mmask8{0xFF}, x, n);
}

// Swaps the off-diagonal d x d blocks of every 2d x 2d block of an 8 x 8
// matrix of qwords held one row per register.
LNIC_FNV1A_TARGET inline void swap_blocks(__m512i m[8], int d, __m512i lo,
                                          __m512i hi) {
  for (int r = 0; r < 8; ++r) {
    if ((r & d) != 0) continue;
    const __m512i a = m[r];
    const __m512i b = m[r + d];
    m[r] = _mm512_permutex2var_epi64(a, lo, b);
    m[r + d] = _mm512_permutex2var_epi64(a, hi, b);
  }
}

LNIC_FNV1A_TARGET inline void transpose8x8(__m512i m[8]) {
  swap_blocks(m, 4, _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
              _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15));
  swap_blocks(m, 2, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
              _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15));
  swap_blocks(m, 1, _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14),
              _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15));
}

// GF2P8AFFINEQB with this operand as its vector and a qword of 8 bytes as
// its matrix gives byte m = bit m of each of the 8 bytes, byte 7 - i at
// bit i; reversing the qword first puts byte i at bit i.
LNIC_FNV1A_TARGET inline __m512i bit_transpose(__m512i reversed_qwords) {
  return _mm512_gf2p8affine_epi64_epi8(
      _mm512_set1_epi64(static_cast<long long>(0x8040201008040201ull)),
      reversed_qwords, 0);
}

// Splits a block into bit planes: plane[k] qword r holds bit k of bytes
// 64 r .. 64 r + 63 of the block, byte 64 r + j at bit j.
LNIC_FNV1A_TARGET inline void to_planes(const std::uint8_t* block,
                                        __m512i plane[8]) {
  const __m512i reverse = _mm512_load_si512(kReverse.at);
  const __m512i gather = _mm512_load_si512(kGather.at);
  for (int r = 0; r < 8; ++r) {
    const __m512i bytes = _mm512_loadu_si512(block + 64 * r);
    plane[r] =
        permute_bytes(gather, bit_transpose(permute_bytes(reverse, bytes)));
  }
  transpose8x8(plane);
}

// The inverse of to_planes, in place: plane[r] becomes row r's bytes.
LNIC_FNV1A_TARGET inline void from_planes(__m512i plane[8]) {
  transpose8x8(plane);
  const __m512i scatter = _mm512_load_si512(kScatter.at);
  for (int r = 0; r < 8; ++r) {
    plane[r] = bit_transpose(permute_bytes(scatter, plane[r]));
  }
}

// Bit i of each qword becomes the XOR of its bits 0..i.
LNIC_FNV1A_TARGET inline __m512i prefix_xor(__m512i x) {
  for (unsigned s = 1; s < 64; s *= 2) {
    x = _mm512_xor_si512(x, shift_left(x, s));
  }
  return x;
}

// One batch in bit planes. Lane 8 z + r of a plane is row r of block z,
// so lanes run in byte order.
struct Batch {
  std::size_t blocks = 0;
  __m512i b[8][kMaxBlocks];  // b[k][z]: plane k of block z's bytes
  __m512i y[8][kMaxBlocks];  // planes of y = l ^ b, l the state's low byte
  // The carry into the next column of y * 0xB3, as c0 + 2 c1.
  __m512i c0[kMaxBlocks];
  __m512i c1[kMaxBlocks];
};

// G_k of block z: bit k of (y mod 2^k) * 0xB3, the parity of y[k - s] for
// the set bits s = 1, 4, 5, 7 of 0xB3 XOR bit 0 of the carry into column k.
template <int k>
LNIC_FNV1A_TARGET inline __m512i taps(const Batch& t, std::size_t z) {
  __m512i g = _mm512_setzero_si512();  // no carry into columns 0 and 1
  if constexpr (k >= 2) g = t.c0[z];
  if constexpr (k >= 1) g = _mm512_xor_si512(g, t.y[k - 1][z]);
  if constexpr (k >= 4) g = _mm512_xor_si512(g, t.y[k - 4][z]);
  if constexpr (k >= 5) g = _mm512_xor_si512(g, t.y[k - 5][z]);
  if constexpr (k >= 7) g = _mm512_xor_si512(g, t.y[k - 7][z]);
  return g;
}

// The carry out of column k of y * 0xB3: column k sums y[k - s] for
// s = 0, 1, 4, 5, 7 and the carry in. It stays below 4, so two planes hold
// it; column 7's is never needed.
template <int k>
LNIC_FNV1A_TARGET inline void carry_out(Batch& t, std::size_t z) {
  const auto& y = t.y;
  __m512i& c0 = t.c0[z];
  __m512i& c1 = t.c1[z];
  if constexpr (k == 1) {
    c0 = _mm512_and_si512(y[1][z], y[0][z]);
  } else if constexpr (k == 2 || k == 3) {
    c0 = majority(y[k][z], y[k - 1][z], c0);
  } else if constexpr (k == 4) {  // y4 + y3 + y0 + c0: at most 4
    const __m512i s = xor3(y[4][z], y[3][z], y[0][z]);
    const __m512i a = majority(y[4][z], y[3][z], y[0][z]);
    const __m512i b = _mm512_and_si512(s, c0);
    c0 = _mm512_xor_si512(a, b);
    c1 = _mm512_and_si512(a, b);
  } else if constexpr (k == 5 || k == 6) {  // four y, c0 and 2 c1: at most 7
    const __m512i s = xor3(y[k][z], y[k - 1][z], y[k - 4][z]);
    const __m512i a = majority(y[k][z], y[k - 1][z], y[k - 4][z]);
    const __m512i b = majority(s, y[k - 5][z], c0);
    c0 = xor3(a, b, c1);
    c1 = majority(a, b, c1);
  }
}

// Plane k of y for every lane of the batch, from planes 0..k-1 and the
// state h the batch starts from.
template <int k>
LNIC_FNV1A_TARGET inline void solve_plane(Batch& t, std::uint64_t h) {
  __m512i g[kMaxBlocks];
  std::uint64_t parity = 0;  // bit 8 z + r: parity of lane r of block z
  for (std::size_t z = 0; z < t.blocks; ++z) {
    g[z] = taps<k>(t, z);
    t.y[k][z] = prefix_xor(_mm512_xor_si512(t.b[k][z], g[z]));
    parity |= std::uint64_t{_mm512_movepi64_mask(t.y[k][z])} << (8 * z);
  }
  // A lane's seed is bit k of h XOR the parities of the lanes before it.
  std::uint64_t seed = parity;
  for (int s = 1; s < 64; s *= 2) seed ^= seed << s;
  seed = (seed << 1) ^ (0 - ((h >> k) & 1));
  for (std::size_t z = 0; z < t.blocks; ++z) {
    // y = l ^ b, where l is the exclusive prefix of b ^ G from the seed.
    const __m512i lane_seed =
        _mm512_movm_epi64(static_cast<__mmask8>(seed >> (8 * z)));
    t.y[k][z] = xor3(t.y[k][z], g[z], lane_seed);
    carry_out<k>(t, z);
  }
}

// sum (y_i - l_i) P^(512 - i) over the bytes of block z.
LNIC_FNV1A_TARGET inline std::uint64_t block_sum(const Batch& t,
                                                 std::size_t z,
                                                 const std::uint8_t* block) {
  __m512i l[8];
  for (int k = 0; k < 8; ++k) l[k] = _mm512_xor_si512(t.y[k][z], t.b[k][z]);
  from_planes(l);
  // acc[q] gathers digit q of every power times y - l, four bytes a lane
  // per row. A lane adds 32 products below 2^23 each, so acc[0] and acc[1]
  // stay exact; acc[2] and acc[3] are needed only mod 2^32.
  const __m512i low_byte = _mm512_set1_epi16(0xFF);
  __m512i acc[4];
  for (__m512i& a : acc) a = _mm512_setzero_si512();
  for (int r = 0; r < 8; ++r) {
    const __m512i y =
        _mm512_xor_si512(l[r], _mm512_loadu_si512(block + 64 * r));
    const __m512i even = _mm512_sub_epi16(_mm512_and_si512(y, low_byte),
                                          _mm512_and_si512(l[r], low_byte));
    const __m512i odd = _mm512_sub_epi16(_mm512_srli_epi16(y, 8),
                                         _mm512_srli_epi16(l[r], 8));
    for (int q = 0; q < 4; ++q) {
      const auto& digits = kBlockPowers.digit[r][q];
      acc[q] = _mm512_add_epi32(
          acc[q], _mm512_add_epi32(
                      _mm512_madd_epi16(even, _mm512_load_si512(digits[0])),
                      _mm512_madd_epi16(odd, _mm512_load_si512(digits[1]))));
    }
  }
  alignas(64) std::int32_t lanes[4][16];
  for (int q = 0; q < 4; ++q) _mm512_store_si512(lanes[q], acc[q]);
  std::uint64_t sum = 0;
  for (int q = 0; q < 4; ++q) {
    std::int64_t digit_sum = 0;
    for (const std::int32_t lane : lanes[q]) digit_sum += lane;
    sum += static_cast<std::uint64_t>(digit_sum) << (16 * q);
  }
  return sum;
}

// FNV-1a from state h over 1..kMaxBlocks whole blocks. With l_i the low
// byte of the state before byte b_i and y_i = l_i ^ b_i:
// (1) h ^ b_i = h + (y_i - l_i), so the result is
//     P^n h + sum (y_i - l_i) P^(n - i);
// (2) l_{i+1} = y_i * 0xB3 mod 256, whose bit k is y_i bit k XOR G_k, and
//     G_k depends only on bits 0..k-1 of y_i;
// (3) so plane k of l is an exclusive prefix XOR of b ^ G_k seeded with
//     bit k of h, once planes 0..k-1 of y are known everywhere.
LNIC_FNV1A_TARGET std::uint64_t fnv1a_batch(std::uint64_t h,
                                            const std::uint8_t* data,
                                            std::size_t blocks) {
  Batch t;
  t.blocks = blocks;
  for (std::size_t z = 0; z < blocks; ++z) {
    __m512i plane[8];
    to_planes(data + z * kBlock, plane);
    for (int k = 0; k < 8; ++k) t.b[k][z] = plane[k];
  }
  solve_plane<0>(t, h);
  solve_plane<1>(t, h);
  solve_plane<2>(t, h);
  solve_plane<3>(t, h);
  solve_plane<4>(t, h);
  solve_plane<5>(t, h);
  solve_plane<6>(t, h);
  solve_plane<7>(t, h);
  for (std::size_t z = 0; z < blocks; ++z) {
    h = h * kBlockPower + block_sum(t, z, data + z * kBlock);
  }
  return h;
}

// FNV-1a of a range of 512 bytes or more: its whole blocks through the
// kernel, the rest through the byte loop. Kept out of fnv1a, so shorter
// ranges run the byte loop without this function's frame.
LNIC_FNV1A_TARGET std::uint64_t fnv1a_kernel(const std::uint8_t* data,
                                             std::size_t len) {
  std::uint64_t h = kOffsetBasis;
  while (len >= kBlock) {
    const std::size_t blocks = std::min(len / kBlock, kMaxBlocks);
    h = fnv1a_batch(h, data, blocks);
    data += blocks * kBlock;
    len -= blocks * kBlock;
  }
  return fnv1a_loop(h, data, len);
}
#endif

}  // namespace

std::string fnv1a_kernel_missing() {
#ifdef LNIC_FNV1A_AVX512
  // Static initialisers may run before the CPU model is read.
  __builtin_cpu_init();
  std::string missing;
  const auto need = [&missing](bool present, const char* feature) {
    if (present) return;
    if (!missing.empty()) missing += ' ';
    missing += feature;
  };
  need(__builtin_cpu_supports("avx512f"), "avx512f");
  need(__builtin_cpu_supports("avx512bw"), "avx512bw");
  need(__builtin_cpu_supports("avx512dq"), "avx512dq");
  need(__builtin_cpu_supports("avx512vl"), "avx512vl");
  need(__builtin_cpu_supports("avx512vbmi"), "avx512vbmi");
  need(__builtin_cpu_supports("gfni"), "gfni");
  return missing;
#else
  return "an x86-64 GCC or Clang build";
#endif
}

#ifdef LNIC_FNV1A_AVX512
namespace {
// Read once, at start-up; false (the byte loop) until then.
const bool kCpuHasFnv1aKernel = fnv1a_kernel_missing().empty();
}  // namespace
#endif

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
#ifdef LNIC_FNV1A_AVX512
  if (len >= kBlock && kCpuHasFnv1aKernel) return fnv1a_kernel(data, len);
#endif
  return fnv1a_loop(kOffsetBasis, data, len);
}

}  // namespace lnic::microc
