#include "util/md5.h"

#include <cassert>
#include <cstring>

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

}  // namespace mcfs
