// VeriFS1: the paper's initial MCFS-enabled RAM file system (§5).
//
// Deliberately minimal, matching the paper's description:
//   * a fixed-length inode array;
//   * a contiguous memory buffer attached to each inode as file data
//     (physical bytes never shrink — which is why forgetting to zero on
//     expansion exposes stale data, the first historical bug);
//   * a limited operation set: NO access(), rename(), symbolic or hard
//     links, or extended attributes;
//   * no limit on the total amount of data stored;
//   * native checkpoint/restore via a snapshot pool.
//
// State is structurally shared (src/verifs/cow_state.h): the inode
// array lives in refcounted chunks and file data in refcounted blocks,
// so Checkpoint() copies O(#chunks) pointers, each mutation clones only
// the chunk/block it writes, and Restore() is a root swap. The
// `cow_snapshots` option falls back to the original copy-the-world
// serialization for differential testing.
//
// Because it is a user-space (FUSE-style) file system, a restore must
// tell the kernel to invalidate its caches through the KernelNotifier;
// the injectable bug flags can suppress that (historical bug #2). With
// COW snapshots the invalidation is O(dirty): every mutation appends
// the (path, inode) it touched to an InvalLog, and restore invalidates
// only the records written since the snapshot was taken.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "fs/perms.h"
#include "verifs/bugs.h"
#include "verifs/cow_state.h"
#include "verifs/snapshot_pool.h"

namespace mcfs::verifs {

struct Verifs1Options {
  std::uint32_t inode_count = 64;  // the fixed-length inode array
  fs::Identity identity;
  VerifsBugs bugs;
  // Structurally-shared snapshots (O(1) checkpoint, O(dirty) restore).
  // False = the original deep-copy serialization per snapshot.
  bool cow_snapshots = true;
};

class Verifs1 : public fs::FileSystem, public fs::CheckpointableFs {
 public:
  explicit Verifs1(Verifs1Options options = {});

  // Wires the kernel-cache invalidation callbacks used on restore.
  void SetNotifier(fs::KernelNotifier* notifier) { notifier_ = notifier; }

  // FileSystem.
  Status Mkfs() override;
  Status Mount() override;
  Status Unmount() override;
  bool IsMounted() const override { return mounted_; }

  Result<fs::InodeAttr> GetAttr(const std::string& path) override;
  Status Mkdir(const std::string& path, fs::Mode mode) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<fs::DirEntry>> ReadDir(const std::string& path) override;

  Result<fs::FileHandle> Open(const std::string& path, std::uint32_t flags,
                              fs::Mode mode) override;
  Status Close(fs::FileHandle fh) override;
  Result<Bytes> Read(fs::FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) override;
  Result<std::uint64_t> Write(fs::FileHandle fh, std::uint64_t offset,
                              ByteView data) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Status Fsync(fs::FileHandle fh) override;

  Status Chmod(const std::string& path, fs::Mode mode) override;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;
  Result<fs::StatVfs> StatFs() override;

  bool Supports(fs::FsFeature feature) const override;
  // Rename/Link/Symlink/Access/xattrs inherit the ENOTSUP defaults:
  // VeriFS1 genuinely lacks them (paper §5).

  std::string TypeName() const override { return "verifs1"; }

  // CheckpointableFs: first-class snapshot handles. Restore preserves
  // the snapshot.
  Result<fs::SnapshotId> Checkpoint() override;
  Status Restore(fs::SnapshotId id) override;
  Status Discard(fs::SnapshotId id) override;
  fs::SnapshotStats Stats() const override;

  // Raw state export/import — what a process- or VM-level snapshotter
  // captures (the daemon's memory image). Import behaves like a restore,
  // including kernel-cache invalidation.
  Bytes ExportState() const { return SerializeState(); }
  void ImportState(ByteView state);

 protected:
  struct Inode {
    bool used = false;
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    // File payload: `buf` is the contiguous buffer (never shrunk),
    // `size` the logical file length.
    CowBuffer buf;
    std::uint64_t size = 0;
    // Directory payload: name -> inode index.
    std::map<std::string, std::uint32_t> children;
    std::uint32_t parent = 0;  // inode index of the containing directory
  };
  using Table = CowTable<Inode>;
  using Snapshot = CowSnapshot<Inode>;

  struct OpenFile {
    std::uint32_t ino_index;
    std::uint32_t flags;
  };

  static constexpr std::uint32_t kRootIndex = 0;

  // Grows (or shrinks) the logical file size. The correct implementation
  // zeroes [old_size, new_size) on growth; bug #1 skips it.
  void SetFileSize(Inode& inode, std::uint64_t new_size, bool zero_growth);

  Result<std::uint32_t> ResolveIndex(const std::string& path) const;
  struct ParentRef {
    std::uint32_t parent_index;
    std::string name;
  };
  Result<ParentRef> ResolveParentRef(const std::string& path) const;
  Result<std::uint32_t> AllocInode();
  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  fs::InodeAttr ToAttr(std::uint32_t index, const Inode& inode) const;
  std::uint32_t ComputeNlink(const Inode& inode) const;

  // Full-state serialization (deep-copy snapshots, ExportState, and the
  // VM/CRIU snapshotters).
  Bytes SerializeState() const;
  void DeserializeState(ByteView state);
  // Mutant restore_skips_one_inode: unlinks the highest-numbered
  // non-root inode from the just-restored image.
  void DropOneInodeAfterRestore();
  // Emits InvalEntry/InvalInode for everything in the current namespace
  // plus the pre-restore paths/inodes handed in (entries from the
  // abandoned timeline must be dropped too, or slot reuse resurrects
  // them as stale cache hits). The full-state fallback; COW restores
  // use the InvalLog suffix instead.
  void InvalidateKernelCaches(const std::vector<std::string>& extra_paths,
                              const std::vector<fs::InodeNum>& extra_inos);
  std::vector<fs::InodeNum> CollectUsedInos() const;
  std::vector<std::string> CollectAllPaths() const;
  void CollectPathsRec(std::uint32_t index, const std::string& prefix,
                       std::vector<std::string>* out) const;

  // --- invalidation log plumbing (O(dirty) restore) ---
  // Records a namespace mutation: `path` for the dentry cache plus the
  // inode (1-based) for the attr cache.
  void LogEntry(const std::string& path, std::uint32_t ino_index) {
    inval_log_.Append(path, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  // Records an attribute/data-only mutation.
  void LogInode(std::uint32_t ino_index) {
    inval_log_.Append({}, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  // Emits invalidations for records in [pos, End) after deduping.
  void EmitInvalRecords(const std::vector<InvalRecord>& records);
  // Trims the log to the oldest live snapshot, or overflows it.
  void CompactInvalLog();
  // Full path of an inode via the parent chain (for mutant logging).
  std::string PathOfIndex(std::uint32_t index) const;

  Verifs1Options options_;
  bool mounted_ = false;
  Table inodes_;  // the fixed-length array, in COW chunks
  std::unordered_map<fs::FileHandle, OpenFile> open_files_;
  fs::FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  SnapshotPool<Snapshot> pool_;
  InvalLog inval_log_;
  fs::KernelNotifier* notifier_ = nullptr;
};

}  // namespace mcfs::verifs
