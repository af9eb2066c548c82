#include "verifs/cow_state.h"

#include <cstring>

namespace mcfs::verifs {

void CowBuffer::resize(std::uint64_t n) {
  if (n <= physical_) return;  // physical buffers never shrink
  std::size_t want = (n + kCowBlockSize - 1) / kCowBlockSize;
  while (blocks_.size() < want) {
    blocks_.push_back(std::make_shared<CowBlock>());  // value-init: zeroed
  }
  // Bytes in [physical_, n) inside already-allocated blocks are zero by
  // the class invariant, so no clone or memset is needed here.
  physical_ = n;
}

void CowBuffer::Zero(std::uint64_t off, std::uint64_t n) {
  ForEachCowSpan(off, n,
                 [this](std::size_t index, std::size_t in_block,
                        std::size_t len) {
                   CowBlock& block = MutCowBlock(blocks_[index], 0);
                   std::memset(block.data() + in_block, 0, len);
                 });
}

void CowBuffer::Write(std::uint64_t off, ByteView data) {
  if (data.empty()) return;
  if (off + data.size() > physical_) resize(off + data.size());
  const std::uint8_t* src = data.data();
  ForEachCowSpan(off, data.size(),
                 [&](std::size_t index, std::size_t in_block,
                     std::size_t len) {
                   CowBlock& block = MutCowBlock(blocks_[index], 0);
                   std::memcpy(block.data() + in_block, src, len);
                   src += len;
                 });
}

Bytes CowBuffer::ReadBytes(std::uint64_t off, std::uint64_t n) const {
  Bytes out(n);
  ReadCowBlocks(blocks_, off, out, 0);
  return out;
}

void CowBuffer::Assign(ByteView data) {
  blocks_.clear();
  physical_ = 0;
  if (!data.empty()) Write(0, data);
}

Bytes CowBuffer::ToBytes() const { return ReadBytes(0, physical_); }

void CowBuffer::clear() {
  blocks_.clear();
  physical_ = 0;
}

}  // namespace mcfs::verifs
