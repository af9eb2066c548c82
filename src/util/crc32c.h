// CRC-32C (Castagnoli polynomial, reflected form 0x82F63B78).
//
// jffs2f frames every on-flash node with one: the check only has to
// catch torn and bit-rotted nodes, not adversaries, and it runs on every
// node of every replay-on-mount. Linux JFFS2 uses the IEEE polynomial;
// this one is what ext4 metadata_csum, XFS v5 and Btrfs use, because
// SSE4.2 computes it in hardware. The conditioning is zlib's (register
// preset to ~0 and the result inverted), not a raw crc(0, ...): with a
// zero preset an all-zero run checks as 0, and a torn node whose header
// and CRC field both read as zeros would pass.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace mcfs {

// CRC-32C of `data`, continuing from `crc` — the value a previous call
// returned (0 to start). Chaining is concatenation:
// Crc32c(b, Crc32c(a)) == Crc32c(a ++ b). On x86-64 hosts with SSE4.2
// this runs the `crc32` instruction, elsewhere Crc32cPortable.
std::uint32_t Crc32c(ByteView data, std::uint32_t crc = 0);

// The same function computed with slice-by-8 tables on any host.
std::uint32_t Crc32cPortable(ByteView data, std::uint32_t crc = 0);

// Whether Crc32c runs the SSE4.2 instruction on this host.
bool Crc32cHardware();

}  // namespace mcfs
