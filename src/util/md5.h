// MD5 (RFC 1321), implemented from scratch.
//
// MCFS's abstraction function (paper Algorithm 1) hashes file paths, data,
// and important metadata into a 128-bit digest used as the abstract state
// for visited-state matching. MD5 is not cryptographically secure, but the
// paper uses it for exactly this purpose; collisions are astronomically
// unlikely at model-checking scales and the digest is small enough to store
// per visited state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace mcfs {

// 128-bit digest with value semantics; usable as a hash-table key.
struct Md5Digest {
  std::array<std::uint8_t, 16> bytes{};

  friend bool operator==(const Md5Digest&, const Md5Digest&) = default;
  friend auto operator<=>(const Md5Digest&, const Md5Digest&) = default;

  // Lower/upper 64 bits, for hash-table bucketing and bitstate addressing.
  std::uint64_t lo64() const;
  std::uint64_t hi64() const;

  std::string ToHex() const;
};

// Incremental MD5 context: Init / Update* / Final, mirroring md5_init /
// md5_update / get_md5_hash in the paper's Algorithm 1.
class Md5 {
 public:
  Md5();

  void Update(ByteView data);
  void Update(std::string_view s) { Update(AsBytes(s)); }
  void UpdateU64(std::uint64_t v);

  // Finalizes and returns the digest. The context must not be reused after.
  Md5Digest Final();

  // One-shot convenience.
  static Md5Digest Hash(ByteView data);
  static Md5Digest Hash(std::string_view s) { return Hash(AsBytes(s)); }

  // The input size HashChunks takes: one 4 KB chunk of file content or
  // of a device image.
  static constexpr std::size_t kChunkBytes = 4096;

  // out[i] = Hash of the kChunkBytes bytes at chunks[i]. The chunks are
  // independent, so on a CPU with AVX-512F a call for two or more hashes
  // sixteen at once, one per 32-bit vector lane, each lane loading
  // through its own pointer (the chunks need not be contiguous, aligned
  // or distinct); elsewhere, and for a lone chunk, each is hashed in turn.
  static void HashChunks(std::span<const std::uint8_t* const> chunks,
                         Md5Digest* out);

 private:
  void ProcessBlock(const std::uint8_t block[64]);

  std::array<std::uint32_t, 4> state_{};
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  bool finalized_ = false;
};

}  // namespace mcfs

// std::hash support so Md5Digest can key unordered containers.
template <>
struct std::hash<mcfs::Md5Digest> {
  std::size_t operator()(const mcfs::Md5Digest& d) const noexcept {
    return static_cast<std::size_t>(d.lo64());
  }
};
