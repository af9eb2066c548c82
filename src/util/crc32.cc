#include "util/crc32.h"

#include <array>

namespace mcfs {
namespace {

constexpr std::uint32_t kPolynomial = 0xedb88320u;

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

}  // namespace

std::uint32_t Crc32(ByteView data, std::uint32_t crc) {
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

}  // namespace mcfs
