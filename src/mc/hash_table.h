// The visited-state table: an open-addressing set of 128-bit abstract
// digests, growing by doubling.
//
// Spin keeps an analogous table; the paper's Figure 3 shows its growth is
// operationally visible — a resize stalls exploration ("this rate then
// dropped drastically ... because Spin was resizing its hash table of
// visited states") and its memory footprint eventually spills into swap.
// Insert() therefore reports resize work, and the table exposes its
// exact byte footprint for the MemoryModel.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/md5.h"
#include "util/result.h"

namespace mcfs::mc {

class VisitedTable {
 public:
  struct InsertResult {
    bool inserted;            // false if the digest was already present
    bool resized;             // this insert triggered a table resize
    std::uint64_t rehashed;   // entries moved during the resize
  };

  explicit VisitedTable(std::size_t initial_capacity = 1024);

  InsertResult Insert(const Md5Digest& digest);
  bool Contains(const Md5Digest& digest) const;

  // Visits every stored digest (used by swarm verification to merge
  // per-worker coverage).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.occupied) fn(slot.digest);
    }
  }

  // Serialization for exploration checkpoints (paper §7: resume model
  // checking after an interruption).
  Bytes Serialize() const;
  static Result<VisitedTable> Deserialize(ByteView image);

  std::uint64_t size() const { return size_; }
  std::uint64_t capacity() const { return slots_.size(); }
  std::uint64_t resize_count() const { return resize_count_; }
  // Exact footprint: slot array plus the table object itself.
  std::uint64_t bytes_used() const;

 private:
  struct Slot {
    Md5Digest digest;
    bool occupied = false;
  };

  std::size_t ProbeStart(const Md5Digest& digest, std::size_t modulus) const;
  std::uint64_t Grow();

  std::vector<Slot> slots_;
  std::uint64_t size_ = 0;
  std::uint64_t resize_count_ = 0;
};

}  // namespace mcfs::mc
