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
// It runs on the same VerifsCore as VeriFS1 (src/verifs/verifs_core.h):
// Checkpoint() is a root copy, mutations clone only the chunk/block they
// write, Restore() is a root swap plus O(dirty) kernel-cache
// invalidation from the InvalLog. This file keeps VeriFS2's inode, byte
// format and stat view, and every operation one of its mutants lives in.
#pragma once

#include <map>
#include <string>

#include "verifs/verifs_core.h"

namespace mcfs::verifs {

struct Verifs2Options {
  std::uint64_t max_total_bytes = 8ull * 1024 * 1024;  // data quota
  fs::Identity identity;
  VerifsBugs bugs;
  // Structurally-shared snapshots (O(1) checkpoint, O(dirty) restore).
  // False = the original deep-copy serialization per snapshot.
  bool cow_snapshots = true;
};

struct Verifs2Inode {
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

class Verifs2 final : public VerifsCore<Verifs2Inode, Verifs2Options> {
 public:
  explicit Verifs2(Verifs2Options options = {});

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

 private:
  // VerifsCore hooks.
  Bytes SerializeState() const override;
  void DeserializeState(ByteView state) override;
  fs::InodeAttr ToAttr(std::uint32_t index, const Inode& inode) const override;
  std::uint64_t ExtraInodeBytes(const Inode& inode) const override;

  std::uint32_t AllocInode();
  void ReleaseInodeIfUnlinked(std::uint32_t index);
  std::uint32_t CountLinks(std::uint32_t index) const;
  std::uint64_t TotalDataBytes() const;
  Status CheckQuota(std::uint64_t additional) const;
  Result<std::uint32_t> CreateChild(const ParentRef& ref, fs::FileType type,
                                    fs::Mode mode,
                                    const std::string& symlink_target);
};

}  // namespace mcfs::verifs
