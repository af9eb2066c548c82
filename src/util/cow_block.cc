#include "util/cow_block.h"

#include <cstring>

namespace mcfs {

void ReadCowBlocks(const CowBlocks& blocks, std::uint64_t off,
                   std::span<std::uint8_t> out) {
  std::uint8_t* dst = out.data();
  ForEachCowSpan(off, out.size(),
                 [&](std::size_t index, std::size_t in_block, std::size_t len) {
                   const CowBlockPtr& block = blocks[index];
                   if (block == nullptr) {
                     std::memset(dst, 0, len);
                   } else {
                     std::memcpy(dst, block->data() + in_block, len);
                   }
                   dst += len;
                 });
}

}  // namespace mcfs
