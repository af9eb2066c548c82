// jffs2f: a log-structured flash file system in the JFFS2 tradition.
//
// JFFS2 cannot use a block device: it requires an MTD character device
// with erase-block semantics (the paper loads mtdram + mtdblock to build
// one in RAM, §4). jffs2f writes append-only *nodes* to the flash log:
//   * inode nodes   — the complete current state of one inode (attributes,
//     full data / symlink target, xattrs), versioned; latest wins; a
//     tombstone flag marks deletion;
//   * dirent nodes  — (parent, name) -> child bindings, versioned; a
//     binding to inode 0 is a deletion record.
// Mount scans the log and rebuilds an in-memory index; that index is the
// mount-time cache that goes stale if the flash is restored underneath a
// live mount (the §3.2 hazard, in its flash form). When the log head
// reaches the end of the flash, garbage collection erases everything and
// rewrites only live nodes.
//
// Traits relevant to the paper: entry-count directory sizes (not
// block-rounded), no special directories, usable capacity very different
// from the block file systems, and much slower per-op device cost (flash
// program/erase latencies) — jffs2f is the slow outlier of Figure 2.
//
// The replay is a left fold over nodes in flash order. Crash-recovery
// probes of one stack share a ReplayMemo, so a probe resumes the fold
// from the longest log prefix its flash shares with the last image a
// probe replayed, instead of re-reading and re-checking that prefix.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fs/filesystem.h"
#include "fs/mount_state.h"
#include "fs/perms.h"
#include "storage/mtd_device.h"

namespace mcfs::fs {

struct Jffs2Options {
  Identity identity;
  // Crash mutant: mount ignores the replayed log and presents a fresh
  // tree (the in-memory index is authoritative while mounted, so the bug
  // is invisible live and only a crash-recovery check can kill it).
  bool bug_skip_log_replay = false;
};

class Jffs2Fs final : public FileSystem, public MountStateCapture {
 public:
  class ReplayMemo;

  // With a `memo`, Mount's log replay resumes from it and leaves its own
  // image and resume points in it. A resumed replay skips the reads of
  // the shared prefix, so the device must charge no simulated time: only
  // recovery probes, whose devices carry no clock, get a memo.
  Jffs2Fs(std::shared_ptr<storage::MtdDevice> mtd, Jffs2Options options = {},
          std::shared_ptr<ReplayMemo> memo = nullptr);
  ~Jffs2Fs() override;

  Status Mkfs() override;
  Status Mount() override;
  Status Unmount() override;
  bool IsMounted() const override { return mounted_; }

  Result<InodeAttr> GetAttr(const std::string& path) override;
  Status Mkdir(const std::string& path, Mode mode) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;

  Result<FileHandle> Open(const std::string& path, std::uint32_t flags,
                          Mode mode) override;
  Status Close(FileHandle fh) override;
  Result<Bytes> Read(FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) override;
  Result<std::uint64_t> Write(FileHandle fh, std::uint64_t offset,
                              ByteView data) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;
  Status Fsync(FileHandle fh) override;

  Status Chmod(const std::string& path, Mode mode) override;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;
  Result<StatVfs> StatFs() override;

  bool Supports(FsFeature feature) const override;
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

  std::string TypeName() const override { return "jffs2f"; }

  // MountStateCapture: the full in-memory index (the log replay's
  // product), so rollbacks skip the replay entirely.
  Result<Bytes> ExportMountState() const override;
  Status ImportMountState(ByteView image) override;

  // Test/diagnostics.
  std::uint64_t gc_runs() const { return gc_runs_; }
  std::uint64_t log_head() const { return log_head_; }
  storage::MtdDevice& mtd() { return *mtd_; }

 private:
  static constexpr std::uint32_t kNodeMagic = 0x4a324653;  // "J2FS"
  static constexpr InodeNum kRootIno = 1;

  // kRename is a single node carrying both halves of a rename (drop the
  // source binding, install the destination binding, optionally tombstone
  // a replaced victim). Emitting it as one node makes rename atomic under
  // crash: the log either contains the whole rename or none of it,
  // whereas a tombstone+insert pair could tear between the two nodes and
  // lose the file entirely.
  enum class NodeType : std::uint8_t { kInode = 1, kDirent = 2, kRename = 3 };

  // A file's content or symlink target, shared by every copy of its
  // InodeRec (replay resume points, the index built from them) until one
  // of them writes: Mut() clones shared bytes first. So a resumed replay
  // copies no file bytes.
  class SharedBytes {
   public:
    SharedBytes() = default;
    explicit SharedBytes(Bytes bytes)
        : bytes_(std::make_shared<Bytes>(std::move(bytes))) {}
    ByteView view() const { return bytes_ ? ByteView(*bytes_) : ByteView(); }
    std::size_t size() const { return bytes_ ? bytes_->size() : 0; }
    bool empty() const { return size() == 0; }
    Bytes& Mut();

   private:
    std::shared_ptr<Bytes> bytes_;
  };

  struct InodeRec {
    FileType type = FileType::kRegular;
    Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t atime_ns = 0;
    std::uint64_t mtime_ns = 0;
    std::uint64_t ctime_ns = 0;
    SharedBytes data;  // file content or symlink target
    std::map<std::string, Bytes> xattrs;
  };

  // The log replay's state after the nodes before `pos`: the highest-seq
  // node per inode, per inode's liveness and per dirent key, and the
  // counters appends continue from. It depends only on the flash bytes
  // before `pos` and on the flash size, so two flashes of one size that
  // agree on those bytes reach the same fold at `pos`.
  struct ReplayFold {
    std::uint64_t pos = 0;
    std::uint64_t next_seq = 1;
    InodeNum next_ino = kRootIno + 1;
    std::map<InodeNum, std::pair<std::uint64_t, InodeRec>> latest_inode;
    std::map<InodeNum, std::pair<std::uint64_t, bool>> inode_dead;
    std::map<std::pair<InodeNum, std::string>,
             std::pair<std::uint64_t, std::pair<InodeNum, FileType>>>
        latest_dirent;
  };

  struct OpenFile {
    InodeNum ino = kInvalidInode;
    std::uint32_t flags = 0;
  };

  // ---- log append / replay ----
  Bytes SerializeInodeNode(InodeNum ino, const InodeRec& rec,
                           bool tombstone);
  Bytes SerializeDirentNode(InodeNum parent, const std::string& name,
                            InodeNum target, FileType type);
  Bytes SerializeRenameNode(InodeNum src_parent, const std::string& src_name,
                            InodeNum dst_parent, const std::string& dst_name,
                            InodeNum target, FileType type, InodeNum victim,
                            bool victim_unlinked);
  // One on-flash node: header, CRC-32 and payload, padded (see the format
  // comment in jffs2fs.cc). Shared by appends and garbage collection.
  static Bytes FrameNode(NodeType type, std::uint64_t seq, ByteView payload);
  // Programs a framed node at the log head and advances it; ENOSPC if it
  // does not fit before the end of the flash.
  Status ProgramAtHead(ByteView node);
  Status AppendNode(ByteView payload, NodeType type);
  Status GarbageCollect();
  // Folds the log into the index, from the memo's resume point if there
  // is one. Returns early, leaving the memo as it was, on a read error.
  Status ReplayLog();
  std::uint64_t LiveBytes() const;

  // ---- persistent-op helpers (mutate index + append node) ----
  Status PersistInode(InodeNum ino, bool tombstone = false);
  Status PersistDirent(InodeNum parent, const std::string& name,
                       InodeNum target, FileType type);

  // ---- namespace helpers ----
  std::uint32_t ComputeNlink(InodeNum ino, const InodeRec& rec) const;
  Result<InodeNum> LookupChild(InodeNum parent, const std::string& name) const;
  std::vector<std::pair<std::string, InodeNum>> ChildrenOf(
      InodeNum parent) const;
  struct Resolved {
    InodeNum ino;
  };
  Result<InodeNum> ResolvePath(const std::string& path) const;
  struct ResolvedParent {
    InodeNum parent_ino;
    std::string name;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path) const;

  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  InodeAttr ToAttr(InodeNum ino, const InodeRec& rec) const;
  Result<InodeNum> CreateNode(const std::string& path, FileType type,
                              Mode mode, const std::string& symlink_target);
  Status RemoveNode(const std::string& path, bool want_dir);
  Status CheckWritableParent(InodeNum parent_ino) const;

  std::shared_ptr<storage::MtdDevice> mtd_;
  Jffs2Options options_;
  std::shared_ptr<ReplayMemo> memo_;  // recovery probes only
  bool mounted_ = false;

  // In-memory index (rebuilt at mount by replaying the log).
  std::map<InodeNum, InodeRec> inodes_;
  std::map<std::pair<InodeNum, std::string>, std::pair<InodeNum, FileType>>
      dirents_;
  std::uint64_t log_head_ = 0;
  std::uint64_t next_seq_ = 1;
  InodeNum next_ino_ = kRootIno + 1;

  std::unordered_map<FileHandle, OpenFile> open_files_;
  FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;
  std::uint64_t gc_runs_ = 0;
};

// What the recovery probes of one stack share: the last flash image a
// probe replayed to its end (a BlockImage copy, which keeps its blocks
// alive) and the replay's fold at each of its node boundaries. A probe
// finds the longest byte prefix its flash shares with that image
// (storage::SharedPrefixBytes) and resumes from the last boundary inside
// it; a corrupted or torn byte in the prefix shortens it, so the nodes
// from there on are read and checked again. Keys are bytes, not block
// pointers: the block holding a node's tail also holds the nodes
// appended after it, so every crash state carries its own clone of it.
//
// Not thread-safe. One thread builds and mounts the probes of a stack,
// and each swarm worker builds its own stack, so no memo is shared
// across threads.
class Jffs2Fs::ReplayMemo {
 public:
  // Replays that reached the end of the log through this memo, and the
  // log bytes they folded (from the resume point to the log's end).
  std::uint64_t replays() const { return replays_; }
  std::uint64_t replayed_bytes() const { return replayed_bytes_; }

 private:
  friend class Jffs2Fs;

  storage::BlockImage image_;
  std::vector<ReplayFold> checkpoints_;  // ascending pos
  std::uint64_t replays_ = 0;
  std::uint64_t replayed_bytes_ = 0;
};

}  // namespace mcfs::fs
