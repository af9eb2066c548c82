// A block device's contents as refcounted copy-on-write 4 KB blocks
// (util/cow_block.h).
//
// Copying an image copies its block-pointer vector and shares every
// block; the first write to a shared block, on either side, clones that
// block alone. So a device snapshot costs O(blocks) pointer copies and
// the writes after it O(dirty) block clones, instead of a whole-image
// copy each. A null block reads as zeros and holds no memory. A block
// stays null until a write puts a nonzero byte in it, and a whole-block
// write of zeros frees it again, so a fresh 16 MB disk is one
// 4,096-entry pointer vector, and the zeros a file system writes to
// format, allocate or fill its blocks cost no memory either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bytes.h"
#include "util/cow_block.h"

namespace mcfs::storage {

class BlockImage {
 public:
  BlockImage() = default;
  // `size` zero bytes, none of them allocated.
  explicit BlockImage(std::uint64_t size);
  // A copy of `bytes`.
  explicit BlockImage(ByteView bytes);

  std::uint64_t size() const { return size_; }

  // Both require the range to lie inside the image: the devices check
  // their bounds before calling.
  void Read(std::uint64_t offset, std::span<std::uint8_t> out) const {
    ReadCowBlocks(blocks_, offset, out);
  }
  void Write(std::uint64_t offset, ByteView data);

  // Block `i`'s bytes; the last block is short when the size is not a
  // multiple of kCowBlockSize, and a null block reads as zeros.
  ByteView Block(std::size_t i) const;
  // Blocks that hold memory (the null ones do not).
  std::size_t allocated_blocks() const;

  Bytes ToBytes() const;

  // Equal contents, however the blocks are shared.
  friend bool operator==(const BlockImage& a, const BlockImage& b);

 private:
  CowBlocks blocks_;
  std::uint64_t size_ = 0;
};

}  // namespace mcfs::storage
