// The snapshot pool VerifsCore (src/verifs/verifs_core.h) keeps for
// VeriFS1 and VeriFS2, plus the deduplicating byte accounting over its
// structurally-shared entries.
//
// Entries are owned by fs::SnapshotId handles and restore is
// non-consuming (the paper's keyed ioctl_RESTORE consumed its entry). A
// COW entry is a root pointer plus its op counter and InvalLog
// position; the bytes it "holds" are whatever chunks/blocks the live
// state has since diverged from, which is what ComputeSnapshotStats
// measures. A deep-copy entry holds a serialized full-state image.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "fs/checkpointable.h"
#include "util/bytes.h"
#include "verifs/cow_state.h"

namespace mcfs::verifs {

// One pool entry. COW snapshots hold a root + counters; deep-copy mode
// (cow_snapshots = false, kept as the paper's original copy-the-world
// baseline and for the differential suite) holds a serialized image.
template <typename Inode>
struct CowSnapshot {
  typename CowTable<Inode>::Root root;
  std::uint64_t op_counter = 0;
  // Invalidation-log position at checkpoint time.
  std::uint64_t inval_pos = 0;
  Bytes deep_image;
  bool deep = false;
};

template <typename Snapshot>
class SnapshotPool {
 public:
  fs::SnapshotId Add(Snapshot snapshot) {
    fs::SnapshotId id = next_++;
    snapshots_.emplace(id, std::move(snapshot));
    return id;
  }

  const Snapshot* Find(fs::SnapshotId id) const {
    auto it = snapshots_.find(id);
    return it == snapshots_.end() ? nullptr : &it->second;
  }

  Status Discard(fs::SnapshotId id) {
    return snapshots_.erase(id) != 0 ? Status::Ok() : Errno::kENOENT;
  }

  std::uint64_t count() const { return snapshots_.size(); }

  void clear() { snapshots_.clear(); }

  const std::map<fs::SnapshotId, Snapshot>& entries() const {
    return snapshots_;
  }

 private:
  std::map<fs::SnapshotId, Snapshot> snapshots_;
  fs::SnapshotId next_ = 1;
};

// True iff any live COW snapshot's log position lies strictly after
// `pos`. Only such a snapshot — taken on a branch that a restore to
// `pos` abandons — needs the undone suffix re-logged; when none
// exists, the restore can skip the re-append entirely and the log
// stays flat across backtrack-heavy walks.
template <typename Inode>
bool AnyCowSnapshotAfter(
    const std::map<fs::SnapshotId, CowSnapshot<Inode>>& snapshots,
    std::uint64_t pos) {
  for (const auto& [id, snap] : snapshots) {
    if (!snap.deep && snap.inval_pos > pos) return true;
  }
  return false;
}

// Deduplicating byte accounting over every snapshot root plus the live
// root. Each distinct chunk/block node is counted once; a node is
// "shared" if more than one snapshot holds it or the live state still
// uses it (discarding a single snapshot cannot free it), "exclusive"
// if exactly one snapshot holds it and the live state does not.
// `inode_extra_bytes(inode)` charges per-inode heap state the chunk's
// sizeof cannot see (directory entries, xattrs); data blocks are
// charged separately at kCowBlockSize each.
template <typename Inode, typename ExtraFn>
fs::SnapshotStats ComputeSnapshotStats(
    const std::map<fs::SnapshotId, CowSnapshot<Inode>>& snapshots,
    const typename CowTable<Inode>::Root& live, ExtraFn&& inode_extra_bytes) {
  using Chunk = typename CowTable<Inode>::Chunk;
  struct NodeInfo {
    std::uint64_t bytes = 0;
    std::uint32_t snap_refs = 0;
    bool live = false;
    std::uint64_t last_visit = 0;
  };
  std::unordered_map<const void*, NodeInfo> nodes;
  std::uint64_t visit = 0;

  auto touch = [&](const void* p, std::uint64_t bytes, bool is_live) {
    NodeInfo& info = nodes[p];
    if (info.last_visit == visit) return;  // count once per root
    info.last_visit = visit;
    info.bytes = bytes;
    if (is_live) {
      info.live = true;
    } else {
      ++info.snap_refs;
    }
  };

  auto visit_root = [&](const typename CowTable<Inode>::Root& root,
                        bool is_live) {
    ++visit;
    for (const auto& chunk : root.chunks) {
      if (chunk == nullptr) continue;
      std::uint64_t chunk_bytes = sizeof(Chunk);
      for (const Inode& inode : chunk->slots) {
        chunk_bytes += inode_extra_bytes(inode);
      }
      touch(chunk.get(), chunk_bytes, is_live);
      for (const Inode& inode : chunk->slots) {
        for (const CowBlockPtr& block : inode.buf.blocks()) {
          if (block != nullptr) touch(block.get(), kCowBlockSize, is_live);
        }
      }
    }
  };

  fs::SnapshotStats stats;
  stats.count = snapshots.size();
  for (const auto& [id, snap] : snapshots) {
    if (snap.deep) {
      stats.total_bytes += snap.deep_image.size();
      stats.exclusive_bytes += snap.deep_image.size();
    } else {
      visit_root(snap.root, /*is_live=*/false);
    }
  }
  visit_root(live, /*is_live=*/true);

  for (const auto& [p, info] : nodes) {
    if (info.snap_refs == 0) continue;  // live-only node: not pool state
    stats.total_bytes += info.bytes;
    if (info.snap_refs == 1 && !info.live) {
      stats.exclusive_bytes += info.bytes;
    } else {
      stats.shared_bytes += info.bytes;
    }
  }
  return stats;
}

}  // namespace mcfs::verifs
