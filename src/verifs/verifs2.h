// VeriFS2: the second-generation MCFS-enabled RAM file system (§5-§6).
//
// Developed, per the paper, by model-checking it against VeriFS1 to add
// the features VeriFS1 lacked:
//   * rename(), hard links, symbolic links, access(), extended attributes;
//   * a dynamically grown inode table (no fixed array);
//   * capacity-managed file buffers that grow by doubling — the substrate
//     of historical bug #4 (size updated only when the buffer grew);
//   * a configurable limit on total stored data (VeriFS1 had none).
//
// Shares the COW snapshot substrate (src/verifs/cow_state.h) and
// handle-allocating pool with VeriFS1: Checkpoint() is a root copy,
// mutations clone only the chunk/block they write, Restore() is a root
// swap plus O(dirty) kernel-cache invalidation from the InvalLog.
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

struct Verifs2Options {
  std::uint64_t max_total_bytes = 8ull * 1024 * 1024;  // data quota
  fs::Identity identity;
  VerifsBugs bugs;
  // Structurally-shared snapshots (O(1) checkpoint, O(dirty) restore).
  // False = the original deep-copy serialization per snapshot.
  bool cow_snapshots = true;
};

class Verifs2 final : public fs::FileSystem, public fs::CheckpointableFs {
 public:
  explicit Verifs2(Verifs2Options options = {});

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
  Status Rename(const std::string& from, const std::string& to) override;
  Status Link(const std::string& existing, const std::string& link) override;
  Status Symlink(const std::string& target, const std::string& link) override;
  Result<std::string> ReadLink(const std::string& path) override;
  Status Access(const std::string& path, std::uint32_t mode) override;
  Status SetXattr(const std::string& path, const std::string& name,
                  ByteView value) override;
  Result<Bytes> GetXattr(const std::string& path,
                         const std::string& name) override;
  Result<std::vector<std::string>> ListXattr(const std::string& path) override;
  Status RemoveXattr(const std::string& path, const std::string& name) override;

  std::string TypeName() const override { return "verifs2"; }

  // CheckpointableFs: first-class snapshot handles (see Verifs1).
  Result<fs::SnapshotId> Checkpoint() override;
  Status Restore(fs::SnapshotId id) override;
  Status Discard(fs::SnapshotId id) override;
  fs::SnapshotStats Stats() const override;

  // Raw state export/import for process/VM snapshotters (see Verifs1).
  Bytes ExportState() const { return SerializeState(); }
  void ImportState(ByteView state);

 private:
  struct Inode {
    bool used = false;
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    CowBuffer buf;            // capacity-managed payload (grows by doubling)
    std::uint64_t size = 0;   // logical length
    std::map<std::string, std::uint32_t> children;  // directories
    std::map<std::string, Bytes> xattrs;
  };
  using Table = CowTable<Inode>;
  using Snapshot = CowSnapshot<Inode>;

  struct OpenFile {
    std::uint32_t ino_index;
    std::uint32_t flags;
  };

  static constexpr std::uint32_t kRootIndex = 0;

  Result<std::uint32_t> ResolveIndex(const std::string& path) const;
  struct ParentRef {
    std::uint32_t parent_index;
    std::string name;
  };
  Result<ParentRef> ResolveParentRef(const std::string& path) const;
  std::uint32_t AllocInode();
  void ReleaseInodeIfUnlinked(std::uint32_t index);
  std::uint32_t CountLinks(std::uint32_t index) const;
  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  fs::InodeAttr ToAttr(std::uint32_t index, const Inode& inode) const;
  std::uint64_t TotalDataBytes() const;
  Status CheckQuota(std::uint64_t additional) const;
  Result<std::uint32_t> CreateChild(const ParentRef& ref, fs::FileType type,
                                    fs::Mode mode,
                                    const std::string& symlink_target);

  Bytes SerializeState() const;
  void DeserializeState(ByteView state);
  void CollectPathsRec(std::uint32_t index, const std::string& prefix,
                       std::vector<std::string>* out) const;
  std::vector<std::string> CollectAllPaths() const;
  std::vector<fs::InodeNum> CollectUsedInos() const;
  void InvalidateKernelCaches(const std::vector<std::string>& extra_paths,
                              const std::vector<fs::InodeNum>& extra_inos);

  // --- invalidation log plumbing (O(dirty) restore), as in Verifs1 ---
  void LogEntry(const std::string& path, std::uint32_t ino_index) {
    inval_log_.Append(path, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  void LogInode(std::uint32_t ino_index) {
    inval_log_.Append({}, static_cast<fs::InodeNum>(ino_index) + 1);
  }
  void EmitInvalRecords(const std::vector<InvalRecord>& records);
  void CompactInvalLog();

  Verifs2Options options_;
  bool mounted_ = false;
  Table inodes_;  // dynamically grown, in COW chunks
  std::unordered_map<fs::FileHandle, OpenFile> open_files_;
  fs::FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  SnapshotPool<Snapshot> pool_;
  InvalLog inval_log_;
  fs::KernelNotifier* notifier_ = nullptr;
};

}  // namespace mcfs::verifs
