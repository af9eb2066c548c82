// Structurally-shared (copy-on-write) state for the VeriFS family.
//
// The paper's ioctl_CHECKPOINT originally deep-copied the whole inode
// table and every data byte; since incremental abstraction (PR 4) made
// hashing O(dirty), that copy was the per-step cost floor of deep DFS.
// Here state becomes a persistent structure:
//
//   * file data lives in fixed-size refcounted blocks (CowBuffer),
//   * the inode table is split into refcounted chunks (CowTable),
//   * a snapshot is a copy of the chunk-pointer vector — O(#chunks)
//     pointer copies, no data copied (effectively O(1)),
//   * a mutation clones only the chunk/block it writes (O(dirty)),
//   * restore swaps the root back in.
//
// Sharing is tracked by std::shared_ptr use counts: a chunk or block
// reachable from any snapshot root has use_count > 1, so Mut() clones
// before writing and snapshot contents are immutable by construction.
// Discarding a snapshot drops its root; unshared nodes free themselves.
//
// The invalidation log (InvalLog) makes restore-time kernel-cache
// invalidation O(dirty) too: every namespace/attr mutation appends the
// (path, inode) it touched, a snapshot remembers its log position, and
// restore invalidates only the suffix written since. When a snapshot
// positioned AFTER the restore target is still live, restore also
// re-appends that suffix (deduped) — without this, restoring FORWARD
// to a snapshot taken on a different branch would miss entries (take
// S, touch /a, restore S, touch /b, take S2, restore S, restore S2:
// the jump back to S2 must still invalidate /b). With no such
// snapshot the re-append is skipped, so a backtracking walk that
// bounces off one rolling snapshot keeps the log flat. The invariant
// maintained is: for any live snapshot position p, the state at p and
// the current state differ only on records in [p, End()).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/types.h"
#include "util/bytes.h"
#include "util/cow_block.h"

namespace mcfs::verifs {

// A file's data buffer as a vector of refcounted 4K blocks
// (util/cow_block.h; one block per small file is the common case in
// exploration workloads) plus a physical size. Mirrors the mutable-Bytes
// buffer it replaces: `size()` is the physical buffer size (which, like
// the old std::vector buffer, never shrinks except on Assign/reset),
// bytes beyond a resize are zero, and stale bytes between logical file
// size and physical size survive verbatim — several seeded VeriFS bugs
// depend on exactly that. Blocks are allocated on resize, never left
// null, so the snapshot stats walk counts every block of the buffer.
//
// Invariant: bytes in [size(), blocks_.size() * kCowBlockSize) are
// zero in every block, so growing within allocated blocks needs no
// clone and no memset.
class CowBuffer {
 public:
  std::uint64_t size() const { return physical_; }
  bool empty() const { return physical_ == 0; }

  // Grows the physical buffer to `n` bytes of which the new tail reads
  // zero. Shrinking is not supported (callers never shrink; logical
  // truncation only moves the inode's size field).
  void resize(std::uint64_t n);

  // Zeroes [off, off + n); requires off + n <= size().
  void Zero(std::uint64_t off, std::uint64_t n);

  // Copies `data` to [off, off + data.size()); grows physical size if
  // the write extends past it.
  void Write(std::uint64_t off, ByteView data);

  // Reads [off, off + n); requires off + n <= size().
  Bytes ReadBytes(std::uint64_t off, std::uint64_t n) const;

  // Replaces the whole buffer (symlink targets, deserialization).
  void Assign(ByteView data);

  // Materializes the full physical buffer (serialization).
  Bytes ToBytes() const;

  void clear();

  // For the snapshot stats walk.
  const CowBlocks& blocks() const { return blocks_; }

 private:
  CowBlocks blocks_;
  std::uint64_t physical_ = 0;
};

// Refcounted-chunk inode table. Get() is a const read; Mut() clones the
// owning chunk iff a snapshot still holds it, so within one operation a
// reference returned by Mut() stays valid across later Mut()/PushBack()
// calls (chunks only re-share at Snapshot/Restore, which happen between
// operations). Growth appends chunks and never moves existing ones, so
// — unlike the flat std::vector table this replaces — AllocInode cannot
// invalidate references either.
template <typename Inode>
class CowTable {
 public:
  static constexpr std::uint32_t kChunkSize = 8;

  struct Chunk {
    std::array<Inode, kChunkSize> slots;
  };
  using ChunkPtr = std::shared_ptr<Chunk>;

  // A snapshot root: the chunk-pointer vector plus the table size.
  struct Root {
    std::vector<ChunkPtr> chunks;
    std::uint32_t size = 0;
  };

  std::uint32_t size() const { return size_; }

  const Inode& Get(std::uint32_t i) const {
    return chunks_[i / kChunkSize]->slots[i % kChunkSize];
  }

  Inode& Mut(std::uint32_t i) {
    ChunkPtr& chunk = chunks_[i / kChunkSize];
    if (chunk.use_count() > 1) chunk = std::make_shared<Chunk>(*chunk);
    return chunk->slots[i % kChunkSize];
  }

  // Resets the table to `count` default-constructed inodes.
  void Assign(std::uint32_t count) {
    chunks_.clear();
    chunks_.resize((count + kChunkSize - 1) / kChunkSize);
    for (ChunkPtr& c : chunks_) c = std::make_shared<Chunk>();
    size_ = count;
  }

  // Grows the table by one default slot and returns its index. The new
  // slot is default-initialized in every shared copy of the last chunk
  // (slots past a root's size are never written on that root's branch),
  // so no clone is needed until the caller Mut()s it.
  std::uint32_t PushBack() {
    if (size_ % kChunkSize == 0) chunks_.push_back(std::make_shared<Chunk>());
    return size_++;
  }

  Root Snapshot() const { return Root{chunks_, size_}; }

  void Restore(const Root& root) {
    chunks_ = root.chunks;
    size_ = root.size;
  }

  void clear() {
    chunks_.clear();
    size_ = 0;
  }

  const std::vector<ChunkPtr>& chunks() const { return chunks_; }

 private:
  std::vector<ChunkPtr> chunks_;
  std::uint32_t size_ = 0;
};

// One kernel-cache invalidation: a full path for the dentry cache
// (empty = attribute-only change) and an inode number for the attr
// cache (fs::kInvalidInode = none).
struct InvalRecord {
  std::string path;
  fs::InodeNum ino = fs::kInvalidInode;
};

// Append-only mutation log driving O(dirty) restore-time invalidation.
// Positions are absolute (monotonic across trims).
class InvalLog {
 public:
  std::uint64_t End() const { return base_ + records_.size(); }

  // False if [pos, End) was trimmed away; restore must then fall back
  // to full-namespace invalidation.
  bool Covers(std::uint64_t pos) const { return pos >= base_; }

  void Append(std::string path, fs::InodeNum ino) {
    records_.push_back(InvalRecord{std::move(path), ino});
  }

  // Records in [pos, End). Requires Covers(pos).
  std::vector<InvalRecord> Since(std::uint64_t pos) const {
    return std::vector<InvalRecord>(
        records_.begin() + static_cast<std::ptrdiff_t>(pos - base_),
        records_.end());
  }

  void ReAppend(const std::vector<InvalRecord>& records) {
    records_.insert(records_.end(), records.begin(), records.end());
  }

  // Drops records below `pos` (no live snapshot needs them).
  void TrimBelow(std::uint64_t pos) {
    if (pos <= base_) return;
    std::uint64_t n = std::min<std::uint64_t>(pos - base_, records_.size());
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(n));
    base_ += n;
  }

  // Drops the records at/after `pos`; End() rewinds to `pos`. Restore
  // uses this when rolling back to `pos` with no live snapshot
  // positioned after it: the dropped suffix described a timeline no
  // one can restore forward to, and rewinding makes a backtracking
  // bounce (mutate, restore, mutate, restore ...) O(dirty) instead of
  // O(everything since the snapshot). Requires Covers(pos).
  void TruncateTo(std::uint64_t pos) {
    records_.resize(static_cast<std::size_t>(pos - base_));
  }

  // Drops everything: all earlier snapshots fall back to full
  // invalidation on restore. Bounds log memory on very long runs.
  void Overflow() {
    base_ = End();
    records_.clear();
  }

  std::size_t record_count() const { return records_.size(); }

  void Reset() {
    records_.clear();
    base_ = 0;
  }

 private:
  std::vector<InvalRecord> records_;
  std::uint64_t base_ = 0;
};

// Cap on retained invalidation records; above this the log is trimmed
// to the oldest live snapshot and, failing that, overflowed.
inline constexpr std::size_t kMaxInvalRecords = 1 << 16;

// Collapses duplicate (path, inode) records. Invalidation is a set
// operation, so a deduped tail is equivalent — and a re-appended
// restore tail is then bounded by the number of distinct entities
// touched, not by log length. Without this, a backtracking loop that
// alternates one mutation with one restore re-appends its own
// re-appends and the suffix doubles on every bounce.
inline void DedupInvalRecords(std::vector<InvalRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const InvalRecord& a, const InvalRecord& b) {
              return std::tie(a.path, a.ino) < std::tie(b.path, b.ino);
            });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const InvalRecord& a, const InvalRecord& b) {
                              return a.path == b.path && a.ino == b.ino;
                            }),
                records.end());
}

}  // namespace mcfs::verifs
