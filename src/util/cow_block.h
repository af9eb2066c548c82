// Refcounted copy-on-write 4 KB blocks: the storage unit shared by
// VeriFS's file buffers (verifs/cow_state.h) and RAM-disk images
// (storage/block_image.h).
//
// A vector of blocks is snapshotted by copying it: every block is then
// shared, which std::shared_ptr's use count records. A writer goes
// through MutCowBlock(), which clones a shared block before handing it
// out, so a snapshot's bytes never change under it and a write costs one
// block copy at most. A null block reads as zeros and holds no memory
// until it is first written.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mcfs {

inline constexpr std::size_t kCowBlockSize = 4096;

using CowBlock = std::array<std::uint8_t, kCowBlockSize>;
using CowBlockPtr = std::shared_ptr<CowBlock>;
using CowBlocks = std::vector<CowBlockPtr>;

// The block behind `block`, ready to write: allocated zeroed if null,
// cloned first if a snapshot still shares it.
inline CowBlock& MutCowBlock(CowBlockPtr& block) {
  if (block == nullptr) {
    block = std::make_shared<CowBlock>();  // value-init: zeroed
  } else if (block.use_count() > 1) {
    block = std::make_shared<CowBlock>(*block);
  }
  return *block;
}

// Splits [off, off + n) at block boundaries and calls
// fn(block index, offset in block, length) for each piece, in order.
template <typename Fn>
void ForEachCowSpan(std::uint64_t off, std::uint64_t n, Fn&& fn) {
  while (n > 0) {
    const std::size_t index = static_cast<std::size_t>(off / kCowBlockSize);
    const std::size_t in_block = static_cast<std::size_t>(off % kCowBlockSize);
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kCowBlockSize - in_block, n));
    fn(index, in_block, len);
    off += len;
    n -= len;
  }
}

// Copies [off, off + out.size()) out of `blocks`; null blocks read as
// zeros. The range must lie inside the blocks.
void ReadCowBlocks(const CowBlocks& blocks, std::uint64_t off,
                   std::span<std::uint8_t> out);

}  // namespace mcfs
