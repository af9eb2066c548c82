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
// Checkpoint/restore, path resolution and the operations no mutant
// reaches live in VerifsCore (src/verifs/verifs_core.h), shared with
// VeriFS2: structurally shared state (O(1) checkpoint, O(dirty) restore
// from the InvalLog tail, or the deep-copy serialization when
// `cow_snapshots` is off) and the kernel-cache invalidation whose
// absence was historical bug #2. This file keeps VeriFS1's inode, byte
// format and stat view, the operations its mutants live in, and the
// restore_skips_one_inode mutant's after-restore step.
#pragma once

#include <map>
#include <string>

#include "verifs/verifs_core.h"

namespace mcfs::verifs {

struct Verifs1Options {
  std::uint32_t inode_count = 64;  // the fixed-length inode array
  fs::Identity identity;
  VerifsBugs bugs;
  // Structurally-shared snapshots (O(1) checkpoint, O(dirty) restore).
  // False = the original deep-copy serialization per snapshot.
  bool cow_snapshots = true;
};

struct Verifs1Inode {
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

class Verifs1 final : public VerifsCore<Verifs1Inode, Verifs1Options> {
 public:
  explicit Verifs1(Verifs1Options options = {});

  // FileSystem.
  Status Mkfs() override;
  Status Mkdir(const std::string& path, fs::Mode mode) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Result<std::vector<fs::DirEntry>> ReadDir(const std::string& path) override;

  Result<fs::FileHandle> Open(const std::string& path, std::uint32_t flags,
                              fs::Mode mode) override;
  Result<std::uint64_t> Write(fs::FileHandle fh, std::uint64_t offset,
                              ByteView data) override;
  Status Truncate(const std::string& path, std::uint64_t size) override;

  Status Chmod(const std::string& path, fs::Mode mode) override;
  Result<fs::StatVfs> StatFs() override;

  bool Supports(fs::FsFeature feature) const override;
  // Rename/Link/Symlink/Access/xattrs inherit the ENOTSUP defaults:
  // VeriFS1 genuinely lacks them (paper §5).

  std::string TypeName() const override { return "verifs1"; }

 private:
  // VerifsCore hooks.
  Bytes SerializeState() const override;
  void DeserializeState(ByteView state) override;
  fs::InodeAttr ToAttr(std::uint32_t index, const Inode& inode) const override;
  // Mutant restore_skips_one_inode: unlinks the highest-numbered
  // non-root inode from the just-restored image.
  void AfterRestore() override;

  // Grows (or shrinks) the logical file size. The correct implementation
  // zeroes [old_size, new_size) on growth; bug #1 skips it.
  void SetFileSize(Inode& inode, std::uint64_t new_size, bool zero_growth);

  Result<std::uint32_t> AllocInode();
  std::uint32_t ComputeNlink(const Inode& inode) const;
  // Full path of an inode via the parent chain (for mutant logging).
  std::string PathOfIndex(std::uint32_t index) const;
};

}  // namespace mcfs::verifs
