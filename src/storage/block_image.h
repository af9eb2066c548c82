// A block device's contents as refcounted copy-on-write 4 KB blocks
// (util/cow_block.h).
//
// Copying an image copies its block-pointer vector and shares every
// block; the first write to a shared block, on either side, clones that
// block alone. So a device snapshot costs O(blocks) pointer copies and
// the writes after it O(dirty) block clones, instead of a whole-image
// copy each. A null block reads as the image's fill byte (zeros for a
// RAM disk, 0xff for erased flash) and holds no memory. A block stays
// null until a write puts another byte in it, and a whole-block write of
// the fill frees it again, so a fresh 16 MB disk is one 4,096-entry
// pointer vector, and the zeros a file system writes to format, allocate
// or fill its blocks cost no memory either, nor does erased flash.
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
  // `size` bytes of `fill` (0 or 0xff), none of them allocated.
  explicit BlockImage(std::uint64_t size, std::uint8_t fill = 0);
  // A copy of `bytes`, on a zero fill.
  explicit BlockImage(ByteView bytes);

  std::uint64_t size() const { return size_; }
  std::uint8_t fill() const { return fill_; }

  // Both require the range to lie inside the image: the devices check
  // their bounds before calling.
  void Read(std::uint64_t offset, std::span<std::uint8_t> out) const {
    ReadCowBlocks(blocks_, offset, out, fill_);
  }
  void Write(std::uint64_t offset, ByteView data);

  // Block `i`'s bytes; the last block is short when the size is not a
  // multiple of kCowBlockSize, and a null block reads as the fill.
  ByteView Block(std::size_t i) const;
  // Blocks that hold memory (the null ones do not).
  std::size_t allocated_blocks() const;

  Bytes ToBytes() const;

  // How many leading bytes `a` and `b` agree on, up to the shorter
  // image's size. A block pointer both images hold, or a null block on
  // the same fill in both, counts as equal without being read; any other
  // pair of blocks is compared byte for byte, so equal bytes in distinct
  // blocks (a clone, or a written block of fill bytes against a null
  // one) count too.
  friend std::uint64_t SharedPrefixBytes(const BlockImage& a,
                                         const BlockImage& b);

  // Equal contents, however the blocks are shared and whatever the
  // fills: a 0xff-fill image equals a zero-fill one holding its bytes.
  friend bool operator==(const BlockImage& a, const BlockImage& b) {
    return a.size_ == b.size_ && SharedPrefixBytes(a, b) == a.size_;
  }

 private:
  CowBlocks blocks_;
  std::uint64_t size_ = 0;
  std::uint8_t fill_ = 0;
};

}  // namespace mcfs::storage
