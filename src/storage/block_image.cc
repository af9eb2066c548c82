#include "storage/block_image.h"

#include <algorithm>
#include <cstring>

namespace mcfs::storage {
namespace {

const CowBlock& ZeroBlock() {
  static const CowBlock zero{};
  return zero;
}

bool AllZero(const std::uint8_t* p, std::size_t n) {
  return n == 0 || (p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0);
}

}  // namespace

BlockImage::BlockImage(std::uint64_t size)
    : blocks_(static_cast<std::size_t>((size + kCowBlockSize - 1) /
                                       kCowBlockSize)),
      size_(size) {}

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
    if (AllZero(src, len) && (block == nullptr || whole)) {
      block = nullptr;
    } else if (whole && block.use_count() != 1) {
      // Every byte of a null or shared block is replaced: a fresh block,
      // neither zeroed nor cloned (a snapshot keeps the one it shares).
      block = std::make_shared_for_overwrite<CowBlock>();
      std::memcpy(block->data(), src, len);
    } else {
      std::memcpy(MutCowBlock(block).data() + in_block, src, len);
    }
    src += len;
  });
}

ByteView BlockImage::Block(std::size_t i) const {
  const CowBlock& block = blocks_[i] != nullptr ? *blocks_[i] : ZeroBlock();
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

bool operator==(const BlockImage& a, const BlockImage& b) {
  if (a.size_ != b.size_) return false;
  for (std::size_t i = 0; i < a.blocks_.size(); ++i) {
    if (a.blocks_[i] == b.blocks_[i]) continue;  // shared (or both null)
    const ByteView x = a.Block(i);
    if (std::memcmp(x.data(), b.Block(i).data(), x.size()) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace mcfs::storage
