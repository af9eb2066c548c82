#include "util/md5.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MCFS_MD5_AVX512 1
#include <immintrin.h>
#endif

namespace mcfs {
namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t Rotl(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

// The four round functions, in the forms with one operation fewer than
// RFC 1321's: F = (b & c) | (~b & d) and G = (b & d) | (c & ~d) select
// bits, which the xor-and-xor form does without a complement.
constexpr std::uint32_t F(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
constexpr std::uint32_t G(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return c ^ (d & (b ^ c));
}
constexpr std::uint32_t H(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t I(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return c ^ (b | ~d);
}

// One step: a = b + ((a + f(b, c, d) + x + t) <<< s), with the shift a
// template argument so every rotate is by a constant.
template <int kShift>
inline void Step(std::uint32_t& a, std::uint32_t b, std::uint32_t f,
                 std::uint32_t x, std::uint32_t t) {
  a = b + Rotl(a + f + x + t, kShift);
}

#ifdef MCFS_MD5_AVX512

// The lane kernel for Md5::HashChunks: sixteen independent MD5 streams,
// one per 32-bit lane of a 512-bit register. It runs only where the CPU
// reports AVX-512F, so the kernel and every helper it inlines carry the
// target attribute instead of the library being built for AVX-512.
#define MCFS_AVX512 __attribute__((target("avx512f")))

bool HasAvx512f() {
  // A function-local static, not a namespace-scope one: the CPU model
  // __builtin_cpu_supports reads may not be set up yet while static
  // initializers run.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return has;
}

// RFC 1321's sine constants, in step order (the scalar steps above
// spell out the same values).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

// vpternlogd truth tables of the round functions over (b, c, d): bit
// (b << 2 | c << 1 | d) of the immediate is f's value for those bits.
constexpr int kLaneF = 0xca;  // b ? c : d
constexpr int kLaneG = 0xe4;  // d ? b : c
constexpr int kLaneH = 0x96;  // b ^ c ^ d
constexpr int kLaneI = 0x39;  // c ^ (b | ~d)

// One step on every lane: a = b + ((a + f(b, c, d) + x + t) <<< s).
template <int kFn, int kShift>
MCFS_AVX512 inline void LaneStep(__m512i& a, __m512i b, __m512i c,
                                 __m512i d, __m512i x, std::uint32_t t) {
  const __m512i f = _mm512_ternarylogic_epi32(b, c, d, kFn);
  const __m512i xt =
      _mm512_add_epi32(x, _mm512_set1_epi32(static_cast<int>(t)));
  // The zero-masked rotate with every lane live is vprold itself; GCC 12's
  // unmasked _mm512_rol_epi32 warns that its undefined pass-through
  // operand is uninitialized.
  const __m512i sum = _mm512_add_epi32(_mm512_add_epi32(a, f), xt);
  a = _mm512_add_epi32(b, _mm512_maskz_rol_epi32(0xffff, sum, kShift));
}

// One round of sixteen steps: step j reads message word
// (kFirst + kStride * j) mod 16 and the sine constant sine[j], and the
// shifts cycle through kS0..kS3.
template <int kFn, int kFirst, int kStride, int kS0, int kS1, int kS2,
          int kS3>
MCFS_AVX512 inline void LaneRound(__m512i v[4], const __m512i m[16],
                                  const std::uint32_t* sine) {
#pragma GCC unroll 4
  for (int j = 0; j < 16; j += 4) {
    LaneStep<kFn, kS0>(v[0], v[1], v[2], v[3],
                       m[(kFirst + kStride * j) % 16], sine[j]);
    LaneStep<kFn, kS1>(v[3], v[0], v[1], v[2],
                       m[(kFirst + kStride * (j + 1)) % 16], sine[j + 1]);
    LaneStep<kFn, kS2>(v[2], v[3], v[0], v[1],
                       m[(kFirst + kStride * (j + 2)) % 16], sine[j + 2]);
    LaneStep<kFn, kS3>(v[1], v[2], v[3], v[0],
                       m[(kFirst + kStride * (j + 3)) % 16], sine[j + 3]);
  }
}

// Runs one 64-byte block of every lane through the compression function;
// m[i] holds message word i of each lane.
MCFS_AVX512 inline void LaneBlock(__m512i state[4], const __m512i m[16]) {
  __m512i v[4] = {state[0], state[1], state[2], state[3]};
  LaneRound<kLaneF, 0, 1, 7, 12, 17, 22>(v, m, kSine);
  LaneRound<kLaneG, 1, 5, 5, 9, 14, 20>(v, m, kSine + 16);
  LaneRound<kLaneH, 5, 3, 4, 11, 16, 23>(v, m, kSine + 32);
  LaneRound<kLaneI, 0, 7, 6, 10, 15, 21>(v, m, kSine + 48);
  for (int i = 0; i < 4; ++i) state[i] = _mm512_add_epi32(state[i], v[i]);
}

MCFS_AVX512 void HashChunksAvx512(std::span<const std::uint8_t* const> chunks,
                                  Md5Digest* out) {
  constexpr std::size_t kChunkBytes = Md5::kChunkBytes;
  // Each 64-bit gather fetches message words w and w + 1 of eight lanes;
  // these pick the even (low) or odd (high) halves of lanes 0-7, then of
  // lanes 8-15.
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
  // Every input is one chunk long, so every lane's padding block is the
  // same: 0x80, zeros, then the length in bits.
  __m512i pad[16];
  for (__m512i& word : pad) word = _mm512_setzero_si512();
  pad[0] = _mm512_set1_epi32(0x80);
  pad[14] = _mm512_set1_epi32(static_cast<int>(kChunkBytes * 8));

  for (std::size_t first = 0; first < chunks.size(); first += 16) {
    // A short pass masks its unused lanes: they load nothing, and their
    // digests are not stored.
    const std::size_t n = std::min<std::size_t>(16, chunks.size() - first);
    const unsigned live = (1u << n) - 1;
    const auto live_lo = static_cast<__mmask8>(live & 0xff);
    const auto live_hi = static_cast<__mmask8>(live >> 8);
    const __m512i ptr_lo = _mm512_maskz_loadu_epi64(live_lo, &chunks[first]);
    const __m512i ptr_hi =
        n > 8 ? _mm512_maskz_loadu_epi64(live_hi, &chunks[first + 8])
              : _mm512_setzero_si512();

    __m512i state[4];
    for (int i = 0; i < 4; ++i) {
      state[i] = _mm512_set1_epi32(static_cast<int>(kInit[i]));
    }
    __m512i m[16];
    for (std::size_t block = 0; block < kChunkBytes; block += 64) {
      for (int w = 0; w < 16; w += 2) {
        const __m512i offset = _mm512_set1_epi64(
            static_cast<long long>(block + static_cast<std::size_t>(w) * 4));
        const __m512i lo = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), live_lo, _mm512_add_epi64(ptr_lo, offset),
            nullptr, 1);
        const __m512i hi = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), live_hi, _mm512_add_epi64(ptr_hi, offset),
            nullptr, 1);
        m[w] = _mm512_permutex2var_epi32(lo, even, hi);
        m[w + 1] = _mm512_permutex2var_epi32(lo, odd, hi);
      }
      LaneBlock(state, m);
    }
    LaneBlock(state, pad);

    alignas(64) std::uint32_t words[4][16];
    for (int i = 0; i < 4; ++i) _mm512_store_si512(words[i], state[i]);
    for (std::size_t lane = 0; lane < n; ++lane) {
      for (int i = 0; i < 4; ++i) {
        // x86-64 is little-endian, MD5's digest byte order.
        std::memcpy(out[first + lane].bytes.data() + 4 * i, &words[i][lane],
                    4);
      }
    }
  }
}

#endif  // MCFS_MD5_AVX512

}  // namespace

std::uint64_t Md5Digest::lo64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return v;
}

std::uint64_t Md5Digest::hi64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  return v;
}

std::string Md5Digest::ToHex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Md5::Md5() {
  state_ = {kInit[0], kInit[1], kInit[2], kInit[3]};
}

void Md5::Update(ByteView data) {
  assert(!finalized_);
  if (data.empty()) return;  // empty spans have a null data()
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  // Fill any partially buffered block first.
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

void Md5::UpdateU64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  Update(ByteView(le, 8));
}

Md5Digest Md5::Final() {
  assert(!finalized_);
  finalized_ = true;

  const std::uint64_t length_bits = bit_count_;
  // Append 0x80, then zero padding to 56 mod 64, then the 64-bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  finalized_ = false;  // allow the padding Updates below
  std::uint64_t saved_bits = bit_count_;
  Update(ByteView(kPad, pad_len));
  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) {
    len_le[i] = static_cast<std::uint8_t>(length_bits >> (8 * i));
  }
  Update(ByteView(len_le, 8));
  bit_count_ = saved_bits;  // irrelevant now, kept tidy
  finalized_ = true;

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      digest.bytes[i * 4 + j] =
          static_cast<std::uint8_t>(state_[i] >> (8 * j));
    }
  }
  return digest;
}

void Md5::ProcessBlock(const std::uint8_t block[64]) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }

  // The 64 steps of RFC 1321 section 3.4, unrolled: each names its
  // round function, message word, sine constant and shift, so no step
  // branches on its round or looks anything up.
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  Step<7>(a, b, F(b, c, d), m[0], 0xd76aa478u);
  Step<12>(d, a, F(a, b, c), m[1], 0xe8c7b756u);
  Step<17>(c, d, F(d, a, b), m[2], 0x242070dbu);
  Step<22>(b, c, F(c, d, a), m[3], 0xc1bdceeeu);
  Step<7>(a, b, F(b, c, d), m[4], 0xf57c0fafu);
  Step<12>(d, a, F(a, b, c), m[5], 0x4787c62au);
  Step<17>(c, d, F(d, a, b), m[6], 0xa8304613u);
  Step<22>(b, c, F(c, d, a), m[7], 0xfd469501u);
  Step<7>(a, b, F(b, c, d), m[8], 0x698098d8u);
  Step<12>(d, a, F(a, b, c), m[9], 0x8b44f7afu);
  Step<17>(c, d, F(d, a, b), m[10], 0xffff5bb1u);
  Step<22>(b, c, F(c, d, a), m[11], 0x895cd7beu);
  Step<7>(a, b, F(b, c, d), m[12], 0x6b901122u);
  Step<12>(d, a, F(a, b, c), m[13], 0xfd987193u);
  Step<17>(c, d, F(d, a, b), m[14], 0xa679438eu);
  Step<22>(b, c, F(c, d, a), m[15], 0x49b40821u);

  Step<5>(a, b, G(b, c, d), m[1], 0xf61e2562u);
  Step<9>(d, a, G(a, b, c), m[6], 0xc040b340u);
  Step<14>(c, d, G(d, a, b), m[11], 0x265e5a51u);
  Step<20>(b, c, G(c, d, a), m[0], 0xe9b6c7aau);
  Step<5>(a, b, G(b, c, d), m[5], 0xd62f105du);
  Step<9>(d, a, G(a, b, c), m[10], 0x02441453u);
  Step<14>(c, d, G(d, a, b), m[15], 0xd8a1e681u);
  Step<20>(b, c, G(c, d, a), m[4], 0xe7d3fbc8u);
  Step<5>(a, b, G(b, c, d), m[9], 0x21e1cde6u);
  Step<9>(d, a, G(a, b, c), m[14], 0xc33707d6u);
  Step<14>(c, d, G(d, a, b), m[3], 0xf4d50d87u);
  Step<20>(b, c, G(c, d, a), m[8], 0x455a14edu);
  Step<5>(a, b, G(b, c, d), m[13], 0xa9e3e905u);
  Step<9>(d, a, G(a, b, c), m[2], 0xfcefa3f8u);
  Step<14>(c, d, G(d, a, b), m[7], 0x676f02d9u);
  Step<20>(b, c, G(c, d, a), m[12], 0x8d2a4c8au);

  Step<4>(a, b, H(b, c, d), m[5], 0xfffa3942u);
  Step<11>(d, a, H(a, b, c), m[8], 0x8771f681u);
  Step<16>(c, d, H(d, a, b), m[11], 0x6d9d6122u);
  Step<23>(b, c, H(c, d, a), m[14], 0xfde5380cu);
  Step<4>(a, b, H(b, c, d), m[1], 0xa4beea44u);
  Step<11>(d, a, H(a, b, c), m[4], 0x4bdecfa9u);
  Step<16>(c, d, H(d, a, b), m[7], 0xf6bb4b60u);
  Step<23>(b, c, H(c, d, a), m[10], 0xbebfbc70u);
  Step<4>(a, b, H(b, c, d), m[13], 0x289b7ec6u);
  Step<11>(d, a, H(a, b, c), m[0], 0xeaa127fau);
  Step<16>(c, d, H(d, a, b), m[3], 0xd4ef3085u);
  Step<23>(b, c, H(c, d, a), m[6], 0x04881d05u);
  Step<4>(a, b, H(b, c, d), m[9], 0xd9d4d039u);
  Step<11>(d, a, H(a, b, c), m[12], 0xe6db99e5u);
  Step<16>(c, d, H(d, a, b), m[15], 0x1fa27cf8u);
  Step<23>(b, c, H(c, d, a), m[2], 0xc4ac5665u);

  Step<6>(a, b, I(b, c, d), m[0], 0xf4292244u);
  Step<10>(d, a, I(a, b, c), m[7], 0x432aff97u);
  Step<15>(c, d, I(d, a, b), m[14], 0xab9423a7u);
  Step<21>(b, c, I(c, d, a), m[5], 0xfc93a039u);
  Step<6>(a, b, I(b, c, d), m[12], 0x655b59c3u);
  Step<10>(d, a, I(a, b, c), m[3], 0x8f0ccc92u);
  Step<15>(c, d, I(d, a, b), m[10], 0xffeff47du);
  Step<21>(b, c, I(c, d, a), m[1], 0x85845dd1u);
  Step<6>(a, b, I(b, c, d), m[8], 0x6fa87e4fu);
  Step<10>(d, a, I(a, b, c), m[15], 0xfe2ce6e0u);
  Step<15>(c, d, I(d, a, b), m[6], 0xa3014314u);
  Step<21>(b, c, I(c, d, a), m[13], 0x4e0811a1u);
  Step<6>(a, b, I(b, c, d), m[4], 0xf7537e82u);
  Step<10>(d, a, I(a, b, c), m[11], 0xbd3af235u);
  Step<15>(c, d, I(d, a, b), m[2], 0x2ad7d2bbu);
  Step<21>(b, c, I(c, d, a), m[9], 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

Md5Digest Md5::Hash(ByteView data) {
  Md5 ctx;
  ctx.Update(data);
  return ctx.Final();
}

void Md5::HashChunks(std::span<const std::uint8_t* const> chunks,
                     Md5Digest* out) {
#ifdef MCFS_MD5_AVX512
  // The lanes pay from two chunks on. A lone chunk takes the scalar loop
  // (9.3 µs against 11.3 µs for a pass of its own on a 2.0 GHz Xeon), so
  // a call for fewer than two runs no 512-bit instruction at all.
  if (chunks.size() >= 2 && HasAvx512f()) {
    HashChunksAvx512(chunks, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    out[i] = Hash(ByteView(chunks[i], kChunkBytes));
  }
}

}  // namespace mcfs
