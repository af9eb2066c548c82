#include "storage/block_image.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mcfs::storage {
namespace {

// What a null block reads as, for the two fills in use.
const CowBlock& FillBlock(std::uint8_t fill) {
  static const CowBlock zeros{};
  static const CowBlock ones = [] {
    CowBlock block;
    block.fill(0xff);
    return block;
  }();
  return fill == 0 ? zeros : ones;
}

bool AllFill(const std::uint8_t* p, std::size_t n, std::uint8_t fill) {
  return n == 0 || (p[0] == fill && std::memcmp(p, p + 1, n - 1) == 0);
}

}  // namespace

BlockImage::BlockImage(std::uint64_t size, std::uint8_t fill)
    : blocks_(static_cast<std::size_t>((size + kCowBlockSize - 1) /
                                       kCowBlockSize)),
      size_(size),
      fill_(fill) {
  assert(fill == 0 || fill == 0xff);
}

BlockImage::BlockImage(ByteView bytes) : BlockImage(bytes.size()) {
  Write(0, bytes);
}

void BlockImage::Write(std::uint64_t offset, ByteView data) {
  const std::uint8_t* src = data.data();
  ForEachCowSpan(offset, data.size(), [&](std::size_t index,
                                          std::size_t in_block,
                                          std::size_t len) {
    CowBlockPtr& block = blocks_[index];
    const bool whole = len == kCowBlockSize;
    if (AllFill(src, len, fill_) && (block == nullptr || whole)) {
      block = nullptr;
    } else if (whole && block.use_count() != 1) {
      // Every byte of a null or shared block is replaced: a fresh block,
      // neither filled nor cloned (a snapshot keeps the one it shares).
      block = std::make_shared_for_overwrite<CowBlock>();
      std::memcpy(block->data(), src, len);
    } else {
      std::memcpy(MutCowBlock(block, fill_).data() + in_block, src, len);
    }
    src += len;
  });
}

ByteView BlockImage::Block(std::size_t i) const {
  const CowBlock& block =
      blocks_[i] != nullptr ? *blocks_[i] : FillBlock(fill_);
  const std::uint64_t begin = std::uint64_t{i} * kCowBlockSize;
  return ByteView(block.data(),
                  static_cast<std::size_t>(
                      std::min<std::uint64_t>(kCowBlockSize, size_ - begin)));
}

std::size_t BlockImage::allocated_blocks() const {
  return static_cast<std::size_t>(
      std::count_if(blocks_.begin(), blocks_.end(),
                    [](const CowBlockPtr& b) { return b != nullptr; }));
}

Bytes BlockImage::ToBytes() const {
  Bytes out(static_cast<std::size_t>(size_));
  Read(0, out);
  return out;
}

std::uint64_t SharedPrefixBytes(const BlockImage& a, const BlockImage& b) {
  const std::uint64_t size = std::min(a.size_, b.size_);
  const std::size_t blocks =
      static_cast<std::size_t>((size + kCowBlockSize - 1) / kCowBlockSize);
  for (std::size_t i = 0; i < blocks; ++i) {
    if (a.blocks_[i] == b.blocks_[i] &&
        (a.blocks_[i] != nullptr || a.fill_ == b.fill_)) {
      continue;  // shared, or both null on one fill
    }
    const ByteView x = a.Block(i);
    const ByteView y = b.Block(i);
    const std::size_t n = std::min(x.size(), y.size());
    if (std::memcmp(x.data(), y.data(), n) != 0) {
      const auto differ = std::mismatch(x.begin(), x.begin() + n, y.begin());
      return std::uint64_t{i} * kCowBlockSize +
             static_cast<std::uint64_t>(differ.first - x.begin());
    }
  }
  return size;
}

}  // namespace mcfs::storage
