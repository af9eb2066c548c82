// CRC-32 (IEEE 802.3 polynomial, reflected form 0xEDB88320), slice-by-8.
//
// jffs2f frames every on-flash node with one, as Linux JFFS2 does: the
// check only has to catch torn and bit-rotted nodes, not adversaries, and
// it runs on every node of every replay-on-mount. The conditioning is
// zlib's (register preset to ~0 and the result inverted), not the
// kernel's raw crc32(0, ...): with a zero preset an all-zero run checks
// as 0, and a torn node whose header and CRC field both read as zeros
// would pass.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace mcfs {

// CRC-32 of `data`, continuing from `crc` — the value a previous call
// returned (0 to start). Chaining is concatenation:
// Crc32(b, Crc32(a)) == Crc32(a ++ b).
std::uint32_t Crc32(ByteView data, std::uint32_t crc = 0);

}  // namespace mcfs
