// The paper's proposed state checkpoint/restore API (§5), redesigned
// around first-class snapshot handles.
//
// A file system that implements this interface can save its complete
// state (in-memory and persistent) and later restore it, letting the
// model checker backtrack without unmount/remount cycles and without
// cache incoherency. The primary surface is handle-based:
//
//   Checkpoint() -> SnapshotId     O(1) for COW-backed file systems
//   Restore(id)                    restore-PRESERVING: the snapshot
//                                  survives and can be restored again
//   Discard(id)                    explicit lifetime end
//   Stats()                        shared vs exclusive byte accounting
//
// Restore-preserving semantics matter for DFS backtracking: the paper's
// keyed ioctl_RESTORE consumed its snapshot, which would force a
// re-checkpoint after every restore just to keep the non-consuming
// contract the explorer expects. Callers that think in their own keys
// (the model checker's snapshot ids) map them to handles themselves.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"

namespace mcfs::fs {

class KernelNotifier;

// Opaque snapshot handle. Implementations allocate ids starting at 1;
// kInvalidSnapshotId never names a live snapshot.
using SnapshotId = std::uint64_t;
constexpr SnapshotId kInvalidSnapshotId = 0;

// Byte accounting for the snapshot pool. With structurally-shared (COW)
// snapshots a node held by several snapshots is counted once in
// `total_bytes`; `shared_bytes` + `exclusive_bytes` == `total_bytes`.
// A node also reachable from the *current* (live) state counts as
// shared: discarding any one snapshot cannot free it.
struct SnapshotStats {
  std::uint64_t count = 0;            // live snapshots
  std::uint64_t total_bytes = 0;      // deduplicated pool footprint
  std::uint64_t shared_bytes = 0;     // held by >1 snapshot or live state
  std::uint64_t exclusive_bytes = 0;  // freed if its one snapshot goes

  friend bool operator==(const SnapshotStats&, const SnapshotStats&) =
      default;
};

class CheckpointableFs {
 public:
  virtual ~CheckpointableFs() = default;

  // Snapshots the complete state (in-memory and persistent) and returns
  // a fresh handle. kEINVAL if the file system is not mounted.
  virtual Result<SnapshotId> Checkpoint() = 0;

  // Restores the state saved under `id` and notifies the kernel to
  // invalidate caches for the paths/inodes that differ. The snapshot is
  // PRESERVED: the same id can be restored again (DFS re-expansion) or
  // discarded later. kENOENT if the id is unknown.
  virtual Status Restore(SnapshotId id) = 0;

  // Drops the snapshot under `id` without restoring (the checker drops
  // snapshots of fully-explored states). kENOENT if unknown.
  virtual Status Discard(SnapshotId id) = 0;

  // Pool accounting; see SnapshotStats.
  virtual SnapshotStats Stats() const = 0;

  // Number of snapshots currently held.
  std::uint64_t SnapshotCount() const { return Stats().count; }

  // Deduplicated bytes held by the snapshot pool (no double-counting of
  // structurally shared state).
  std::uint64_t SnapshotBytes() const { return Stats().total_bytes; }
};

// A user-space file system whose whole state lives in its daemon's
// memory (VeriFS1, VeriFS2, SpecFs): what a process or VM snapshotter
// captures, plus the notifier through which a rollback of that memory
// invalidates kernel caches.
class DaemonImage {
 public:
  virtual ~DaemonImage() = default;

  // Wires the kernel-cache invalidation callbacks sent on restore.
  virtual void SetNotifier(KernelNotifier* notifier) = 0;

  // The full state as bytes (the daemon's memory image).
  virtual Bytes ExportState() const = 0;

  // Replaces the state with an exported image. Behaves like a restore,
  // kernel-cache invalidation included.
  virtual void ImportState(ByteView state) = 0;
};

}  // namespace mcfs::fs
