#include "util/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MCFS_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace mcfs {
namespace {

constexpr std::uint32_t kPolynomial = 0x82f63b78u;

// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the
// CRC of byte b followed by k zero bytes, which lets the main loop fold
// eight input bytes per step with independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? (c >> 1) ^ kPolynomial : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#ifdef MCFS_CRC32C_SSE42

// The hardware path runs three interleaved streams over three equal
// blocks, which hides the instruction's latency: the first stream
// continues the running register, the other two start from zero, and
// their registers are combined by shifting the earlier ones over the
// later blocks' length in zero bytes. That shift is linear over GF(2),
// so it is four table lookups once its tables exist (the zeros operator
// of Intel's iSCSI CRC paper and Mark Adler's crc32c.c). Long buffers
// run 3 x 8 KB blocks, then 3 x 256 B, then one stream for the tail.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

// Maps a raw CRC register to the register after `len` more zero bytes.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t len) {
    // The image of each single-bit register, then of every byte value
    // in each of the register's four byte lanes.
    std::array<std::uint32_t, 32> bit_image{};
    for (int bit = 0; bit < 32; ++bit) {
      std::uint32_t c = std::uint32_t{1} << bit;
      for (std::size_t i = 0; i < len; ++i) {
        c = (c >> 8) ^ kTables[0][c & 0xff];
      }
      bit_image[bit] = c;
    }
    for (int lane = 0; lane < 4; ++lane) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t image = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) image ^= bit_image[lane * 8 + bit];
        }
        table_[lane][b] = image;
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return table_[0][crc & 0xff] ^ table_[1][(crc >> 8) & 0xff] ^
           table_[2][(crc >> 16) & 0xff] ^ table_[3][crc >> 24];
  }

 private:
  std::array<std::array<std::uint32_t, 256>, 4> table_{};
};

bool HasSse42() {
  // A function-local static, not a namespace-scope one: the CPU model
  // __builtin_cpu_supports reads may not be set up yet while static
  // initializers run.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}

std::uint64_t LoadLe64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));  // x86-64 is little-endian
  return v;
}

// The raw register after the 3 * kBlock bytes at `p`.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) std::uint32_t ThreeStreams(
    const std::uint8_t* p, std::uint32_t crc, const ZeroShift& shift) {
  std::uint64_t c0 = crc;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i < kBlock; i += 8) {
    c0 = _mm_crc32_u64(c0, LoadLe64(p + i));
    c1 = _mm_crc32_u64(c1, LoadLe64(p + kBlock + i));
    c2 = _mm_crc32_u64(c2, LoadLe64(p + 2 * kBlock + i));
  }
  return shift(shift(static_cast<std::uint32_t>(c0)) ^
               static_cast<std::uint32_t>(c1)) ^
         static_cast<std::uint32_t>(c2);
}

__attribute__((target("sse4.2"))) std::uint32_t HardwareRaw(
    const std::uint8_t* p, std::size_t n, std::uint32_t crc) {
  if (n >= 3 * kShortBlock) {
    static const ZeroShift long_shift(kLongBlock);
    static const ZeroShift short_shift(kShortBlock);
    for (; n >= 3 * kLongBlock; p += 3 * kLongBlock, n -= 3 * kLongBlock) {
      crc = ThreeStreams<kLongBlock>(p, crc, long_shift);
    }
    for (; n >= 3 * kShortBlock; p += 3 * kShortBlock, n -= 3 * kShortBlock) {
      crc = ThreeStreams<kShortBlock>(p, crc, short_shift);
    }
  }
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) c = _mm_crc32_u64(c, LoadLe64(p));
  crc = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

#endif  // MCFS_CRC32C_SSE42

}  // namespace

std::uint32_t Crc32cPortable(ByteView data, std::uint32_t crc) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

bool Crc32cHardware() {
#ifdef MCFS_CRC32C_SSE42
  return HasSse42();
#else
  return false;
#endif
}

std::uint32_t Crc32c(ByteView data, std::uint32_t crc) {
#ifdef MCFS_CRC32C_SSE42
  if (HasSse42()) return ~HardwareRaw(data.data(), data.size(), ~crc);
#endif
  return Crc32cPortable(data, crc);
}

}  // namespace mcfs
