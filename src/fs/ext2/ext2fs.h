// ext2f: a from-scratch block-based file system in the ext2 tradition.
//
// Layout (all sizes in blocks of `block_size` bytes):
//   block 0                superblock
//   block 1                block bitmap
//   block 2                inode bitmap
//   blocks 3..3+T-1        inode table (T = inode_count / inodes-per-block)
//   remaining blocks       data (file contents, directories, symlink
//                          targets, xattr blocks, indirect blocks)
//
// Files use 12 direct block pointers plus one single-indirect block;
// pointer value 0 means a hole that reads as zeros (sparse files).
// Directories serialize their entry list into data blocks and are
// rewritten on modification.
//
// The namespace operations (paths, directories, rename, links, xattrs,
// file data over the block map) come from NamespaceFs, shared with xfsf
// (fs/namespace_fs.h). This file holds ext2f's layout: the allocators,
// the inode codec, the block map, the cache and the lifecycle.
//
// Faithfulness notes (per DESIGN.md §2):
//  * Directory sizes are reported as a multiple of the block size — the
//    ext2/ext4 trait behind the paper's §3.4 false positive.
//  * A write-back block cache holds dirty blocks in memory until
//    Unmount/Fsync. Restoring the backing device while mounted therefore
//    leaves the cache stale — reproducing the §3.2 cache-incoherency
//    corruption the paper hit with in-kernel file systems.
//  * The on-disk format is original, not Linux-compatible; behaviour
//    through the FileSystem interface is what the paper's checker sees.
#pragma once

#include <array>
#include <map>

#include "fs/namespace_fs.h"

namespace mcfs::fs {

struct Ext2Options {
  std::uint32_t block_size = 1024;
  std::uint32_t inode_count = 64;
  // Write-back cache capacity in blocks (0 = unbounded). A bounded cache
  // evicts (flushing dirty victims), so after an unsynchronized device
  // restore the view mixes cached old-world blocks with restored
  // new-world blocks — the §3.2 corruption mechanism.
  std::uint32_t cache_capacity_blocks = 64;
  // ext4f sets this: create a lost+found directory at mkfs (paper §3.4,
  // "special folders" false positive).
  bool create_lost_and_found = false;
  // Blocks reserved for a journal region immediately after the inode
  // table; 0 disables journaling (plain ext2f).
  std::uint32_t journal_blocks = 0;
  Identity identity;
  std::string type_name = "ext2f";
  // Crash mutant (ext4f): fsync acknowledges success without issuing the
  // device barrier, so the journal commit (and checkpoint) never become
  // durable. Invisible live; only a crash-recovery check can kill it.
  bool bug_ack_before_journal_commit = false;
};

// On-disk inode image.
struct Ext2Inode {
  static constexpr std::size_t kDirectBlocks = 12;

  FileType type = FileType::kRegular;
  Mode mode = 0;
  std::uint32_t nlink = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint64_t atime_ns = 0;
  std::uint64_t mtime_ns = 0;
  std::uint64_t ctime_ns = 0;
  std::array<std::uint32_t, kDirectBlocks> direct{};
  std::uint32_t indirect = 0;
  std::uint32_t xattr_block = 0;
};

class Ext2Fs : public NamespaceFs<Ext2Inode, Ext2Options> {
 public:
  Ext2Fs(storage::BlockDevicePtr device, Ext2Options options = {});
  ~Ext2Fs() override;

  Status Mkfs() override;
  Status Mount() override;
  Status Unmount() override;
  Status Fsync(FileHandle fh) override;
  Result<StatVfs> StatFs() override;

  std::string TypeName() const override { return options_.type_name; }

  // MountStateCapture (paper §7 future work): the in-memory half of a
  // kernel-FS state capture — superblock copy, bitmaps, the write-back
  // block cache — so the checker can roll back without remounting.
  Result<Bytes> ExportMountState() const override;
  Status ImportMountState(ByteView image) override;

  // Test/diagnostic access.
  const Ext2Options& options() const { return options_; }
  storage::BlockDevice& device() { return *device_; }
  std::uint64_t dirty_block_count() const;

 protected:
  static constexpr std::uint32_t kMagic = 0x45583246;  // "EX2F"
  static constexpr std::uint32_t kInodeDiskSize = 128;

  // The NamespaceFs hooks are final: ext4f keeps ext2f's layout, and
  // ext2f's calls among its own hooks stay direct calls.
  // ---- block cache (write-back, LRU eviction) ----
  Result<Bytes> ReadBlock(std::uint32_t block_no) final;
  Status WriteBlock(std::uint32_t block_no, ByteView data) final;
  Status FlushCache();
  void TouchBlock(std::uint32_t block_no);
  Status EvictIfNeeded();
  // Hook for ext4f's journal: called with the dirty set before it is
  // checkpointed in place. Default does nothing.
  virtual Status PrepareFlush(const std::map<std::uint32_t, Bytes>& dirty);
  // Hook called after the dirty set has been checkpointed in place
  // (ext4f retires the journal transaction here). Default does nothing.
  virtual Status FinishFlush();
  // Hook for ext4f: replay/recover before reading structures at mount.
  virtual Status RecoverOnMount();
  // Set while Fsync runs under bug_ack_before_journal_commit: barrier
  // points (FlushCache here, WriteTransaction in ext4f) skip
  // device_->Flush(), so the "synced" writes stay in flight.
  bool ack_without_barrier_ = false;

  // ---- allocation ----
  Result<std::uint32_t> AllocBlock() final;
  Status FreeBlock(std::uint32_t block_no) final;
  Result<InodeNum> AllocInode() final;
  Status FreeInode(InodeNum ino) final;
  // Frees the file's blocks, its xattr block and the inode.
  Status DropInode(Inode& inode, InodeNum ino) final;
  std::uint32_t data_region_start() const;

  // ---- inode I/O ----
  Result<Inode> LoadInode(InodeNum ino) final;
  Status StoreInode(InodeNum ino, const Inode& inode) final;

  // ---- file block mapping: 12 direct pointers, one indirect block ----
  Result<std::uint32_t> MapBlock(const Inode& inode,
                                 std::uint64_t index) final;
  Result<std::uint32_t> MapBlockAlloc(Inode& inode,
                                      std::uint64_t index) final;
  Status FreeFileBlocks(Inode& inode, std::uint64_t from_block) final;
  std::uint64_t max_file_bytes() const final;

  // ---- attribute view ----
  InodeAttr ToAttr(InodeNum ino, const Inode& inode) const final;
  // Data, indirect and xattr blocks.
  std::uint64_t CountAllocatedBlocks(const Inode& inode) final;
  // Insertion order.
  void OrderDirEntries(std::vector<DirEntry>&) const final {}

  // In-memory (mount-time) state — the part that goes stale if the device
  // is restored underneath a live mount.
  struct Superblock {
    std::uint32_t magic = 0;
    std::uint32_t block_size = 0;
    std::uint32_t total_blocks = 0;
    std::uint32_t inode_count = 0;
    std::uint32_t free_blocks = 0;
    std::uint32_t free_inodes = 0;
    std::uint32_t journal_blocks = 0;
  };
  Superblock sb_;
  Bytes block_bitmap_;
  Bytes inode_bitmap_;
  std::map<std::uint32_t, Bytes> cache_;        // block_no -> contents
  std::map<std::uint32_t, bool> cache_dirty_;   // block_no -> dirty?
  std::map<std::uint32_t, std::uint64_t> cache_age_;  // LRU recency
  std::uint64_t cache_tick_ = 0;

  Status WriteSuperblock();
  Status WriteBitmaps();
};

}  // namespace mcfs::fs
