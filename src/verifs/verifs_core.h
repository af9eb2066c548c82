// The checkpoint/restore core shared by VeriFS1 and VeriFS2 (paper §5):
// the copy-on-write inode table, the open files, the op counter, the
// snapshot pool, the invalidation log and the kernel notifier, with
// everything that only reads them written once:
//
//   * lifecycle (Mount/Unmount) and path resolution;
//   * the operations no mutant reaches: GetAttr, Close, Read, Fsync and
//     Chown;
//   * the whole snapshot protocol: Checkpoint, Restore (the O(dirty)
//     path that replays the InvalLog tail and the full path that
//     invalidates the namespace before and after), Discard, Stats, and
//     ExportState/ImportState for process and VM snapshotters.
//
// Each family keeps its inode, options, Mkfs, StatFs, Supports and every
// operation one of its mutants lives in, and fills the protected hooks:
// its byte format (SerializeState/DeserializeState), its stat view
// (ToAttr, where nlink and size and their mutants live), the heap bytes
// Stats() charges beyond directory entries (xattrs), and a step run
// right after a restore swaps the state back in (VeriFS1's
// restore_skips_one_inode mutant). The core reads only identity,
// cow_snapshots and skip_cache_invalidation_on_restore of the family's
// options, and never asks which family it serves.
//
// `InodeT` carries used, type, mode, uid, gid, atime_ns/mtime_ns/
// ctime_ns, a CowBuffer `buf`, the logical `size` and the directory's
// `children` (name -> inode index). `Options` carries identity, bugs and
// cow_snapshots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "fs/path.h"
#include "fs/perms.h"
#include "verifs/bugs.h"
#include "verifs/cow_state.h"
#include "verifs/snapshot_pool.h"

namespace mcfs::verifs {

template <typename InodeT, typename Options>
class VerifsCore : public fs::FileSystem,
                   public fs::CheckpointableFs,
                   public fs::DaemonImage {
 public:
  Status Mount() final;
  Status Unmount() final;
  bool IsMounted() const final { return mounted_; }

  Result<fs::InodeAttr> GetAttr(const std::string& path) final;
  Status Close(fs::FileHandle fh) final;
  Result<Bytes> Read(fs::FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) final;
  Status Fsync(fs::FileHandle fh) final;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) final;

  // CheckpointableFs: first-class snapshot handles. Restore preserves
  // the snapshot.
  Result<fs::SnapshotId> Checkpoint() final;
  Status Restore(fs::SnapshotId id) final;
  Status Discard(fs::SnapshotId id) final;
  fs::SnapshotStats Stats() const final;

  // DaemonImage: the daemon's memory image. Import behaves like a
  // restore, kernel-cache invalidation included.
  void SetNotifier(fs::KernelNotifier* notifier) final {
    notifier_ = notifier;
  }
  Bytes ExportState() const final { return SerializeState(); }
  void ImportState(ByteView state) final;

 protected:
  using Inode = InodeT;
  using Table = CowTable<Inode>;
  using Snapshot = CowSnapshot<Inode>;

  struct OpenFile {
    std::uint32_t ino_index;
    std::uint32_t flags;
  };
  struct ParentRef {
    std::uint32_t parent_index;
    std::string name;
  };

  static constexpr std::uint32_t kRootIndex = 0;

  explicit VerifsCore(Options options) : options_(std::move(options)) {}

  // ---- hooks ----
  // Full-state serialization (deep-copy snapshots, ExportState, and the
  // VM/CRIU snapshotters).
  virtual Bytes SerializeState() const = 0;
  virtual void DeserializeState(ByteView state) = 0;
  // Attributes as stat reports them; inode numbers are index + 1.
  virtual fs::InodeAttr ToAttr(std::uint32_t index,
                               const Inode& inode) const = 0;
  // Per-inode heap bytes Stats() charges beyond the directory entries.
  virtual std::uint64_t ExtraInodeBytes(const Inode&) const { return 0; }
  // Runs after a restore has swapped the state back in and taken its
  // invalidation tail, before the log is rewound, re-appended or
  // overflowed.
  virtual void AfterRestore() {}

  Result<std::uint32_t> ResolveIndex(const std::string& path) const;
  Result<ParentRef> ResolveParentRef(const std::string& path) const;
  // Deterministic pseudo-time: one microsecond per operation.
  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  // Canonical form of an op path, matching what the full invalidation
  // walk emits: trailing slashes and the like must not desynchronize the
  // log from the file system's own paths.
  static std::string CanonicalPath(const std::string& path);

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
  // Appends the paths below directory `index`, named from `prefix`.
  void CollectPathsRec(std::uint32_t index, const std::string& prefix,
                       std::vector<std::string>* out) const;

  Options options_;
  bool mounted_ = false;
  Table inodes_;
  std::unordered_map<fs::FileHandle, OpenFile> open_files_;
  fs::FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  InvalLog inval_log_;

 private:
  std::vector<std::string> CollectAllPaths() const;
  std::vector<fs::InodeNum> CollectUsedInos() const;
  // Emits InvalEntry/InvalInode for everything in the current namespace
  // plus the pre-rollback paths/inodes handed in (entries from the
  // abandoned timeline must be dropped too, or slot reuse resurrects
  // them as stale cache hits). The full-state fallback; COW restores
  // use the InvalLog suffix instead.
  void InvalidateKernelCaches(const std::vector<std::string>& extra_paths,
                              const std::vector<fs::InodeNum>& extra_inos);
  // Emits invalidations for a deduped log tail.
  void EmitInvalRecords(const std::vector<InvalRecord>& records);
  // Trims the log to the oldest live snapshot, or overflows it.
  void CompactInvalLog();

  SnapshotPool<Snapshot> pool_;
  fs::KernelNotifier* notifier_ = nullptr;
};

// ---------------------------------------------------------------------------
// Lifecycle and resolution

template <typename I, typename O>
Status VerifsCore<I, O>::Mount() {
  if (mounted_) return Errno::kEBUSY;
  if (inodes_.size() == 0) return Errno::kEINVAL;  // never formatted
  mounted_ = true;
  return Status::Ok();
}

template <typename I, typename O>
Status VerifsCore<I, O>::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  // A RAM file system's state lives in the daemon, which outlives the
  // kernel mount; only the open-handle table dies with the mount.
  mounted_ = false;
  open_files_.clear();
  return Status::Ok();
}

template <typename I, typename O>
Result<std::uint32_t> VerifsCore<I, O>::ResolveIndex(
    const std::string& path) const {
  if (!mounted_) return Errno::kEINVAL;
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  std::uint32_t index = kRootIndex;
  for (const auto& comp : split.value()) {
    const Inode& inode = inodes_.Get(index);
    if (inode.type != fs::FileType::kDirectory) return Errno::kENOTDIR;
    if (!fs::PermissionGranted(ToAttr(index, inode), options_.identity,
                               fs::kXOk)) {
      return Errno::kEACCES;
    }
    auto it = inode.children.find(comp);
    if (it == inode.children.end()) return Errno::kENOENT;
    index = it->second;
  }
  return index;
}

template <typename I, typename O>
auto VerifsCore<I, O>::ResolveParentRef(const std::string& path) const
    -> Result<ParentRef> {
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;
  auto parent = ResolveIndex(fs::ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (inodes_.Get(parent.value()).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ParentRef{parent.value(), split.value().back()};
}

template <typename I, typename O>
std::string VerifsCore<I, O>::CanonicalPath(const std::string& path) {
  auto split = fs::SplitPath(path);
  if (!split.ok()) return path;
  return fs::JoinPath(split.value());
}

// ---------------------------------------------------------------------------
// The operations no mutant reaches

template <typename I, typename O>
Result<fs::InodeAttr> VerifsCore<I, O>::GetAttr(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  return ToAttr(index.value(), inodes_.Get(index.value()));
}

template <typename I, typename O>
Status VerifsCore<I, O>::Close(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

template <typename I, typename O>
Result<Bytes> VerifsCore<I, O>::Read(fs::FileHandle fh, std::uint64_t offset,
                                     std::uint64_t size) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kWrOnly) {
    return Errno::kEBADF;
  }
  Inode& inode = inodes_.Mut(it->second.ino_index);
  if (inode.type == fs::FileType::kDirectory) return Errno::kEISDIR;
  inode.atime_ns = NowNs();
  LogInode(it->second.ino_index);
  if (offset >= inode.size) return Bytes{};
  const std::uint64_t n = std::min(size, inode.size - offset);
  return inode.buf.ReadBytes(offset, n);
}

template <typename I, typename O>
Status VerifsCore<I, O>::Fsync(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.contains(fh) ? Status::Ok() : Status(Errno::kEBADF);
}

template <typename I, typename O>
Status VerifsCore<I, O>::Chown(const std::string& path, std::uint32_t uid,
                               std::uint32_t gid) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  Inode& inode = inodes_.Mut(index.value());
  inode.uid = uid;
  inode.gid = gid;
  inode.ctime_ns = NowNs();
  LogInode(index.value());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore (the paper's proposal)

template <typename I, typename O>
Result<fs::SnapshotId> VerifsCore<I, O>::Checkpoint() {
  if (!mounted_) return Errno::kEINVAL;
  CompactInvalLog();
  // Lock, capture, unlock (paper §5). Single-threaded here, so "lock"
  // is implicit. COW capture is O(#chunks) pointer copies.
  Snapshot snap;
  if (options_.cow_snapshots) {
    snap.root = inodes_.Snapshot();
    snap.op_counter = op_counter_;
    snap.inval_pos = inval_log_.End();
  } else {
    snap.deep = true;
    snap.deep_image = SerializeState();
  }
  return pool_.Add(std::move(snap));
}

template <typename I, typename O>
Status VerifsCore<I, O>::Restore(fs::SnapshotId id) {
  if (!mounted_) return Errno::kEINVAL;
  const Snapshot* snap = pool_.Find(id);
  if (snap == nullptr) return Errno::kENOENT;
  const bool invalidate = !options_.bugs.skip_cache_invalidation_on_restore;

  if (snap->deep || !inval_log_.Covers(snap->inval_pos)) {
    // Full-state path: deep-copy snapshots, or COW snapshots whose log
    // prefix was trimmed/overflowed. Remember the namespace that is
    // about to disappear: its entries and inodes must be invalidated in
    // the kernel too.
    std::vector<std::string> pre_paths = CollectAllPaths();
    std::vector<fs::InodeNum> pre_inos = CollectUsedInos();
    if (snap->deep) {
      DeserializeState(snap->deep_image);
    } else {
      inodes_.Restore(snap->root);
      op_counter_ = snap->op_counter;
    }
    AfterRestore();
    open_files_.clear();  // handles do not survive a state rollback
    // This rollback is untracked, so positions before it can no longer
    // bound their dirty set; every older snapshot falls back here too.
    inval_log_.Overflow();
    // The fix for historical bug #2: notify the kernel so its dentry
    // and inode caches drop entries from the abandoned timeline.
    if (invalidate) InvalidateKernelCaches(pre_paths, pre_inos);
    return Status::Ok();
  }

  // O(dirty) path: the records written since the snapshot was taken are
  // exactly where the abandoned timeline and the restored one differ.
  std::vector<InvalRecord> tail = inval_log_.Since(snap->inval_pos);
  DedupInvalRecords(tail);
  inodes_.Restore(snap->root);
  op_counter_ = snap->op_counter;
  open_files_.clear();
  AfterRestore();
  // Re-log the undone mutations: a later restore FORWARD to a snapshot
  // taken on the abandoned branch must still invalidate them. With no
  // live snapshot positioned after this one, no such forward restore
  // can happen, and skipping the re-append keeps the log flat across
  // a backtracking walk's op/restore/op/restore bouncing.
  if (AnyCowSnapshotAfter(pool_.entries(), snap->inval_pos)) {
    inval_log_.ReAppend(tail);
    CompactInvalLog();
  } else {
    // No one can restore forward past this position: rewind the log to
    // it so repeated bounces off one snapshot stay O(dirty).
    inval_log_.TruncateTo(snap->inval_pos);
  }
  if (invalidate) EmitInvalRecords(tail);
  return Status::Ok();
}

template <typename I, typename O>
Status VerifsCore<I, O>::Discard(fs::SnapshotId id) {
  Status s = pool_.Discard(id);
  if (s.ok()) CompactInvalLog();
  return s;
}

template <typename I, typename O>
fs::SnapshotStats VerifsCore<I, O>::Stats() const {
  return ComputeSnapshotStats<Inode>(
      pool_.entries(), inodes_.Snapshot(), [this](const Inode& inode) {
        std::uint64_t extra = ExtraInodeBytes(inode);
        for (const auto& [name, child] : inode.children) {
          extra += name.size() + 32;  // map-node overhead estimate
        }
        return extra;
      });
}

template <typename I, typename O>
void VerifsCore<I, O>::ImportState(ByteView state) {
  std::vector<std::string> pre_paths = CollectAllPaths();
  std::vector<fs::InodeNum> pre_inos = CollectUsedInos();
  DeserializeState(state);
  open_files_.clear();
  inval_log_.Overflow();  // untracked rollback, same as a deep restore
  if (!options_.bugs.skip_cache_invalidation_on_restore) {
    InvalidateKernelCaches(pre_paths, pre_inos);
  }
}

template <typename I, typename O>
void VerifsCore<I, O>::CompactInvalLog() {
  if (inval_log_.record_count() <= kMaxInvalRecords) return;
  std::uint64_t min_pos = inval_log_.End();
  for (const auto& [id, snap] : pool_.entries()) {
    if (!snap.deep) min_pos = std::min(min_pos, snap.inval_pos);
  }
  inval_log_.TrimBelow(min_pos);
  // Still over the cap: some snapshot is ancient. Overflow and let its
  // eventual restore take the full-invalidation path.
  if (inval_log_.record_count() > kMaxInvalRecords) inval_log_.Overflow();
}

// ---------------------------------------------------------------------------
// Kernel-cache invalidation

template <typename I, typename O>
void VerifsCore<I, O>::CollectPathsRec(std::uint32_t index,
                                       const std::string& prefix,
                                       std::vector<std::string>* out) const {
  const Inode& inode = inodes_.Get(index);
  for (const auto& [name, child] : inode.children) {
    const std::string path = prefix == "/" ? "/" + name : prefix + "/" + name;
    out->push_back(path);
    if (inodes_.Get(child).type == fs::FileType::kDirectory) {
      CollectPathsRec(child, path, out);
    }
  }
}

template <typename I, typename O>
std::vector<std::string> VerifsCore<I, O>::CollectAllPaths() const {
  std::vector<std::string> out;
  if (inodes_.size() != 0) CollectPathsRec(kRootIndex, "/", &out);
  return out;
}

template <typename I, typename O>
std::vector<fs::InodeNum> VerifsCore<I, O>::CollectUsedInos() const {
  std::vector<fs::InodeNum> inos;
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    if (inodes_.Get(i).used) inos.push_back(static_cast<fs::InodeNum>(i + 1));
  }
  return inos;
}

template <typename I, typename O>
void VerifsCore<I, O>::InvalidateKernelCaches(
    const std::vector<std::string>& extra_paths,
    const std::vector<fs::InodeNum>& extra_inos) {
  if (notifier_ == nullptr) return;
  std::vector<std::string> paths = CollectAllPaths();
  paths.insert(paths.end(), extra_paths.begin(), extra_paths.end());
  std::vector<fs::InodeNum> inos = CollectUsedInos();
  inos.insert(inos.end(), extra_inos.begin(), extra_inos.end());
  fs::NotifyInvalidations(*notifier_, std::move(paths), std::move(inos));
}

template <typename I, typename O>
void VerifsCore<I, O>::EmitInvalRecords(
    const std::vector<InvalRecord>& records) {
  if (notifier_ == nullptr) return;
  std::vector<std::string> paths;
  std::vector<fs::InodeNum> inos;
  for (const InvalRecord& rec : records) {
    if (!rec.path.empty()) paths.push_back(rec.path);
    if (rec.ino != fs::kInvalidInode) inos.push_back(rec.ino);
  }
  fs::NotifyInvalidations(*notifier_, std::move(paths), std::move(inos));
}

}  // namespace mcfs::verifs
