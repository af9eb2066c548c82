// The namespace layer shared by the block-based file systems (ext2f,
// ext4f, xfsf): path resolution, directories, create and remove, rename,
// links and symlinks, permissions, open files, the xattr block, and file
// data I/O over whole blocks. None of it depends on the on-disk format.
//
// Each format supplies its layout through the protected hooks: block I/O
// and allocation, the inode codec and allocator, and the file-block map.
// The on-disk traits behind the paper's cross-file-system false
// positives (§3.4) are hooks too, so a pair of formats differs exactly
// where the formats do: directory sizes (ToAttr), getdents order, where
// st_blocks is counted, what a dropped inode frees, and the largest file
// the block map can hold. Lifecycle (Mkfs/Mount/Unmount), mount-state
// capture, Fsync and StatFs stay with the format.
//
// `InodeT` is the format's in-memory inode. It carries type, mode,
// nlink, uid, gid, size, atime_ns/mtime_ns/ctime_ns and xattr_block (one
// block of xattrs per inode, 0 = none), and default-constructs to an
// empty regular file with no blocks. `Options` carries block_size and
// identity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "fs/filesystem.h"
#include "fs/mount_state.h"
#include "fs/path.h"
#include "fs/perms.h"
#include "storage/block_device.h"

namespace mcfs::fs {

template <typename InodeT, typename Options>
class NamespaceFs : public FileSystem, public MountStateCapture {
 public:
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

  Status Chmod(const std::string& path, Mode mode) override;
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;

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

 protected:
  using Inode = InodeT;

  static constexpr InodeNum kRootIno = 1;

  NamespaceFs(storage::BlockDevicePtr device, Options options)
      : device_(std::move(device)), options_(std::move(options)) {}

  // ---- layout hooks: block I/O and allocation ----
  virtual Result<Bytes> ReadBlock(std::uint32_t block_no) = 0;
  // `data` is at most one block; the rest of the block is zero-filled.
  virtual Status WriteBlock(std::uint32_t block_no, ByteView data) = 0;
  // A new block reads as zeros.
  virtual Result<std::uint32_t> AllocBlock() = 0;
  virtual Status FreeBlock(std::uint32_t block_no) = 0;

  // ---- layout hooks: inodes ----
  virtual Result<Inode> LoadInode(InodeNum ino) = 0;
  virtual Status StoreInode(InodeNum ino, const Inode& inode) = 0;
  virtual Result<InodeNum> AllocInode() = 0;
  virtual Status FreeInode(InodeNum ino) = 0;
  // Releases everything an unlinked inode with no links left holds.
  virtual Status DropInode(Inode& inode, InodeNum ino) = 0;

  // ---- layout hooks: file block map ----
  // Disk block backing file block `index`, 0 for a hole.
  virtual Result<std::uint32_t> MapBlock(const Inode& inode,
                                         std::uint64_t index) = 0;
  // Like MapBlock but allocates (and records) a block for a hole.
  virtual Result<std::uint32_t> MapBlockAlloc(Inode& inode,
                                              std::uint64_t index) = 0;
  // Frees every file block at `from_block` and above.
  virtual Status FreeFileBlocks(Inode& inode, std::uint64_t from_block) = 0;
  // Largest file size the block map can address: Write fails with EFBIG
  // past it, and a read of an inode claiming more fails with EIO.
  virtual std::uint64_t max_file_bytes() const = 0;

  // ---- layout hooks: attribute view ----
  // Attributes as stat reports them, st_blocks aside (the directory-size
  // trait lives here).
  virtual InodeAttr ToAttr(InodeNum ino, const Inode& inode) const = 0;
  // Blocks charged to the inode in st_blocks, in file-system blocks.
  virtual std::uint64_t CountAllocatedBlocks(const Inode& inode) = 0;
  // Puts getdents output into the format's order; entries arrive in
  // insertion order.
  virtual void OrderDirEntries(std::vector<DirEntry>& entries) const = 0;

  // ---- data I/O on inodes ----
  Result<Bytes> ReadInodeData(const Inode& inode, std::uint64_t offset,
                              std::uint64_t size);
  Result<std::uint64_t> WriteInodeData(Inode& inode, std::uint64_t offset,
                                       ByteView data);
  Status TruncateInode(Inode& inode, std::uint64_t new_size);

  // ---- directories ----
  struct RawDirEntry {
    std::string name;
    InodeNum ino;
    FileType type;
  };
  Result<std::vector<RawDirEntry>> LoadDir(InodeNum ino);
  Status StoreDir(InodeNum ino, Inode& inode,
                  const std::vector<RawDirEntry>& entries);

  // ---- path resolution ----
  struct Resolved {
    InodeNum ino;
    Inode inode;
  };
  Result<Resolved> ResolvePath(const std::string& path);
  // Resolves the parent directory of `path` and returns it plus basename.
  struct ResolvedParent {
    InodeNum parent_ino;
    Inode parent;
    std::string name;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path);

  // ---- helpers ----
  // Deterministic, strictly monotonic pseudo-time: one microsecond per
  // operation. Real time would make exploration non-reproducible.
  std::uint64_t NowNs() { return ++op_counter_ * 1000; }
  Result<InodeNum> CreateNode(const std::string& path, FileType type,
                              Mode mode, const std::string& symlink_target);
  Status RemoveNode(const std::string& path, bool want_dir);
  Status CheckNotMounted() const {
    return mounted_ ? Status(Errno::kEBUSY) : Status::Ok();
  }
  Status CheckMounted() const {
    return mounted_ ? Status::Ok() : Status(Errno::kEINVAL);
  }

  // ---- xattr block ----
  using XattrMap = std::map<std::string, Bytes>;
  Result<XattrMap> LoadXattrs(const Inode& inode);
  Status StoreXattrs(Inode& inode, const XattrMap& xattrs);

  struct OpenFile {
    InodeNum ino = kInvalidInode;
    std::uint32_t flags = 0;
  };

  storage::BlockDevicePtr device_;
  Options options_;
  bool mounted_ = false;
  std::unordered_map<FileHandle, OpenFile> open_files_;
  FileHandle next_handle_ = 1;
  std::uint64_t op_counter_ = 0;  // drives timestamps deterministically
};

// ---------------------------------------------------------------------------
// Inode data I/O

template <typename I, typename O>
Result<Bytes> NamespaceFs<I, O>::ReadInodeData(const Inode& inode,
                                               std::uint64_t offset,
                                               std::uint64_t size) {
  if (offset >= inode.size) return Bytes{};
  // A corrupted on-disk inode (e.g. after a §3.2-style unsynchronized
  // restore) can carry a garbage size field, and honoring it would be an
  // allocation bomb.
  if (inode.size > max_file_bytes()) return Errno::kEIO;
  const std::uint64_t n = std::min(size, inode.size - offset);
  Bytes out(n, 0);
  const std::uint32_t bs = options_.block_size;
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t file_block = pos / bs;
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take = std::min<std::uint64_t>(bs - in_block, n - done);
    auto mapped = MapBlock(inode, file_block);
    if (!mapped.ok()) return mapped.error();
    if (mapped.value() != 0) {
      auto raw = ReadBlock(mapped.value());
      if (!raw.ok()) return raw.error();
      std::memcpy(out.data() + done, raw.value().data() + in_block, take);
    }  // holes read as zeros
    done += take;
  }
  return out;
}

template <typename I, typename O>
Result<std::uint64_t> NamespaceFs<I, O>::WriteInodeData(Inode& inode,
                                                        std::uint64_t offset,
                                                        ByteView data) {
  const std::uint32_t bs = options_.block_size;
  if (offset + data.size() > max_file_bytes()) return Errno::kEFBIG;

  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t file_block = pos / bs;
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take =
        std::min<std::uint64_t>(bs - in_block, data.size() - done);
    auto mapped = MapBlockAlloc(inode, file_block);
    if (!mapped.ok()) return mapped.error();
    auto raw = ReadBlock(mapped.value());
    if (!raw.ok()) return raw.error();
    Bytes b = raw.value();
    std::memcpy(b.data() + in_block, data.data() + done, take);
    if (Status s = WriteBlock(mapped.value(), b); !s.ok()) return s.error();
    done += take;
  }
  if (offset + data.size() > inode.size) inode.size = offset + data.size();
  return data.size();
}

template <typename I, typename O>
Status NamespaceFs<I, O>::TruncateInode(Inode& inode, std::uint64_t new_size) {
  const std::uint32_t bs = options_.block_size;
  if (new_size < inode.size) {
    const std::uint64_t keep_blocks = (new_size + bs - 1) / bs;
    if (Status s = FreeFileBlocks(inode, keep_blocks); !s.ok()) return s;
    // Zero the tail of the final partial block so a later extension reads
    // zeros. (This is the step the first VeriFS1 bug omitted, paper §6.)
    if (new_size % bs != 0) {
      auto mapped = MapBlock(inode, new_size / bs);
      if (!mapped.ok()) return mapped.error();
      if (mapped.value() != 0) {
        auto raw = ReadBlock(mapped.value());
        if (!raw.ok()) return raw.error();
        Bytes b = raw.value();
        std::memset(b.data() + new_size % bs, 0, bs - new_size % bs);
        if (Status s = WriteBlock(mapped.value(), b); !s.ok()) {
          return s.error();
        }
      }
    }
  }
  // Growth needs no allocation: unmapped blocks read as zeros.
  inode.size = new_size;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Directories

template <typename I, typename O>
auto NamespaceFs<I, O>::LoadDir(InodeNum ino)
    -> Result<std::vector<RawDirEntry>> {
  auto inode = LoadInode(ino);
  if (!inode.ok()) return inode.error();
  if (inode.value().type != FileType::kDirectory) return Errno::kENOTDIR;
  auto raw = ReadInodeData(inode.value(), 0, inode.value().size);
  if (!raw.ok()) return raw.error();
  if (raw.value().empty()) return std::vector<RawDirEntry>{};

  // A corrupted directory block parses as garbage; surface it as EIO —
  // the "directory entries with corrupted or zeroed inodes" symptom the
  // paper saw after unsynchronized restores (§3.2).
  try {
    ByteReader r(raw.value());
    const std::uint32_t count = r.GetU32();
    std::vector<RawDirEntry> entries;
    entries.reserve(std::min<std::uint32_t>(count, 4096));
    for (std::uint32_t i = 0; i < count; ++i) {
      RawDirEntry e;
      e.ino = r.GetU64();
      e.type = static_cast<FileType>(r.GetU8());
      e.name = r.GetString();
      entries.push_back(std::move(e));
    }
    return entries;
  } catch (const std::out_of_range&) {
    return Errno::kEIO;
  }
}

template <typename I, typename O>
Status NamespaceFs<I, O>::StoreDir(InodeNum ino, Inode& inode,
                                   const std::vector<RawDirEntry>& entries) {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.PutU64(e.ino);
    w.PutU8(static_cast<std::uint8_t>(e.type));
    w.PutString(e.name);
  }
  if (Status s = TruncateInode(inode, 0); !s.ok()) return s;
  auto written = WriteInodeData(inode, 0, w.bytes());
  if (!written.ok()) return written.error();
  inode.mtime_ns = NowNs();
  return StoreInode(ino, inode);
}

// ---------------------------------------------------------------------------
// Path resolution

template <typename I, typename O>
auto NamespaceFs<I, O>::ResolvePath(const std::string& path)
    -> Result<Resolved> {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();

  InodeNum ino = kRootIno;
  auto inode = LoadInode(ino);
  if (!inode.ok()) return inode.error();

  for (const auto& comp : split.value()) {
    if (inode.value().type != FileType::kDirectory) return Errno::kENOTDIR;
    if (!PermissionGranted(ToAttr(ino, inode.value()), options_.identity,
                           kXOk)) {
      return Errno::kEACCES;
    }
    auto entries = LoadDir(ino);
    if (!entries.ok()) return entries.error();
    InodeNum next = kInvalidInode;
    for (const auto& e : entries.value()) {
      if (e.name == comp) {
        next = e.ino;
        break;
      }
    }
    if (next == kInvalidInode) return Errno::kENOENT;
    ino = next;
    inode = LoadInode(ino);
    if (!inode.ok()) return inode.error();
  }
  return Resolved{ino, inode.value()};
}

template <typename I, typename O>
auto NamespaceFs<I, O>::ResolveParent(const std::string& path)
    -> Result<ResolvedParent> {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;  // "/" has no parent

  const std::string name = split.value().back();
  auto parent = ResolvePath(ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (parent.value().inode.type != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ResolvedParent{parent.value().ino, parent.value().inode, name};
}

// ---------------------------------------------------------------------------
// Namespace operations

template <typename I, typename O>
Result<InodeAttr> NamespaceFs<I, O>::GetAttr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeAttr attr = ToAttr(res.value().ino, res.value().inode);
  attr.blocks =
      CountAllocatedBlocks(res.value().inode) * (options_.block_size / 512);
  return attr;
}

template <typename I, typename O>
Result<InodeNum> NamespaceFs<I, O>::CreateNode(
    const std::string& path, FileType type, Mode mode,
    const std::string& symlink_target) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == parent.value().name) return Errno::kEEXIST;
  }

  auto ino = AllocInode();
  if (!ino.ok()) return ino.error();

  Inode inode;
  inode.type = type;
  inode.mode = static_cast<Mode>(mode & kModeMask);
  inode.nlink = (type == FileType::kDirectory) ? 2 : 1;
  inode.uid = options_.identity.uid;
  inode.gid = options_.identity.gid;
  const std::uint64_t t = NowNs();
  inode.atime_ns = inode.mtime_ns = inode.ctime_ns = t;

  if (type == FileType::kSymlink) {
    auto written = WriteInodeData(inode, 0, AsBytes(symlink_target));
    if (!written.ok()) {
      (void)FreeInode(ino.value());
      return written.error();
    }
  }
  if (Status s = StoreInode(ino.value(), inode); !s.ok()) {
    (void)FreeInode(ino.value());
    return s.error();
  }

  auto updated = entries.value();
  updated.push_back({parent.value().name, ino.value(), type});
  Inode parent_inode = parent.value().parent;
  if (type == FileType::kDirectory) ++parent_inode.nlink;
  if (Status s = StoreDir(parent.value().parent_ino, parent_inode, updated);
      !s.ok()) {
    (void)FreeInode(ino.value());
    return s.error();
  }
  return ino.value();
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Mkdir(const std::string& path, Mode mode) {
  auto ino = CreateNode(path, FileType::kDirectory, mode, "");
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

template <typename I, typename O>
Status NamespaceFs<I, O>::RemoveNode(const std::string& path, bool want_dir) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();

  auto it = std::find_if(
      entries.value().begin(), entries.value().end(),
      [&](const RawDirEntry& e) { return e.name == parent.value().name; });
  if (it == entries.value().end()) return Errno::kENOENT;

  auto target = LoadInode(it->ino);
  if (!target.ok()) return target.error();
  Inode target_inode = target.value();

  if (want_dir) {
    if (target_inode.type != FileType::kDirectory) return Errno::kENOTDIR;
    auto children = LoadDir(it->ino);
    if (!children.ok()) return children.error();
    if (!children.value().empty()) return Errno::kENOTEMPTY;
  } else if (target_inode.type == FileType::kDirectory) {
    return Errno::kEISDIR;
  }

  const InodeNum victim = it->ino;
  auto updated = entries.value();
  updated.erase(updated.begin() + (it - entries.value().begin()));
  Inode parent_inode = parent.value().parent;
  if (want_dir) --parent_inode.nlink;
  if (Status s = StoreDir(parent.value().parent_ino, parent_inode, updated);
      !s.ok()) {
    return s;
  }

  if (want_dir) {
    target_inode.nlink = 0;
  } else {
    --target_inode.nlink;
  }
  if (target_inode.nlink == 0) return DropInode(target_inode, victim);
  target_inode.ctime_ns = NowNs();
  return StoreInode(victim, target_inode);
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  return RemoveNode(path, /*want_dir=*/true);
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Unlink(const std::string& path) {
  return RemoveNode(path, /*want_dir=*/false);
}

template <typename I, typename O>
Result<std::vector<DirEntry>> NamespaceFs<I, O>::ReadDir(
    const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kDirectory) return Errno::kENOTDIR;
  if (!PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                         options_.identity, kROk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(res.value().ino);
  if (!entries.ok()) return entries.error();

  // Update atime (noise the abstraction function must ignore, paper §3.3).
  Inode inode = res.value().inode;
  inode.atime_ns = NowNs();
  if (Status s = StoreInode(res.value().ino, inode); !s.ok()) return s.error();

  std::vector<DirEntry> out;
  out.reserve(entries.value().size());
  for (const auto& e : entries.value()) {
    out.push_back({e.name, e.ino, e.type});
  }
  // Deliberately NOT sorted: real file systems return entries in
  // implementation order, which is why MCFS sorts getdents output before
  // comparing (paper §3.4).
  OrderDirEntries(out);
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

template <typename I, typename O>
Result<FileHandle> NamespaceFs<I, O>::Open(const std::string& path,
                                           std::uint32_t flags, Mode mode) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto res = ResolvePath(path);
  InodeNum ino;
  if (!res.ok()) {
    if (res.error() != Errno::kENOENT || !(flags & kCreate)) {
      return res.error();
    }
    auto created = CreateNode(path, FileType::kRegular, mode, "");
    if (!created.ok()) return created.error();
    ino = created.value();
  } else {
    if (flags & kCreate && flags & kExcl) return Errno::kEEXIST;
    ino = res.value().ino;
    Inode inode = res.value().inode;
    const bool want_write = (flags & kAccessModeMask) != kRdOnly;
    if (inode.type == FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    if (inode.type == FileType::kSymlink) return Errno::kELOOP;
    const std::uint32_t want =
        want_write ? ((flags & kAccessModeMask) == kRdWr ? (kROk | kWOk)
                                                         : kWOk)
                   : kROk;
    if (!PermissionGranted(ToAttr(ino, inode), options_.identity, want)) {
      return Errno::kEACCES;
    }
    if ((flags & kTrunc) && want_write &&
        inode.type == FileType::kRegular) {
      if (Status s = TruncateInode(inode, 0); !s.ok()) return s.error();
      inode.mtime_ns = NowNs();
      if (Status s = StoreInode(ino, inode); !s.ok()) return s.error();
    }
  }
  const FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino, flags};
  return fh;
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Close(FileHandle fh) {
  if (Status s = CheckMounted(); !s.ok()) return s;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

template <typename I, typename O>
Result<Bytes> NamespaceFs<I, O>::Read(FileHandle fh, std::uint64_t offset,
                                      std::uint64_t size) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kWrOnly) return Errno::kEBADF;
  auto inode = LoadInode(it->second.ino);
  if (!inode.ok()) return inode.error();
  if (inode.value().type == FileType::kDirectory) return Errno::kEISDIR;
  auto data = ReadInodeData(inode.value(), offset, size);
  if (!data.ok()) return data.error();

  Inode updated = inode.value();
  updated.atime_ns = NowNs();
  if (Status s = StoreInode(it->second.ino, updated); !s.ok()) {
    return s.error();
  }
  return data;
}

template <typename I, typename O>
Result<std::uint64_t> NamespaceFs<I, O>::Write(FileHandle fh,
                                               std::uint64_t offset,
                                               ByteView data) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kRdOnly) return Errno::kEBADF;
  auto inode = LoadInode(it->second.ino);
  if (!inode.ok()) return inode.error();
  Inode updated = inode.value();
  if (it->second.flags & kAppend) offset = updated.size;
  auto written = WriteInodeData(updated, offset, data);
  if (!written.ok()) return written.error();
  updated.mtime_ns = NowNs();
  updated.ctime_ns = updated.mtime_ns;
  if (Status s = StoreInode(it->second.ino, updated); !s.ok()) {
    return s.error();
  }
  return written;
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Truncate(const std::string& path,
                                   std::uint64_t size) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type == FileType::kDirectory) return Errno::kEISDIR;
  if (!PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  Inode inode = res.value().inode;
  if (Status s = TruncateInode(inode, size); !s.ok()) return s;
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  return StoreInode(res.value().ino, inode);
}

// ---------------------------------------------------------------------------
// Attributes

template <typename I, typename O>
Status NamespaceFs<I, O>::Chmod(const std::string& path, Mode mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (!options_.identity.IsRoot() &&
      options_.identity.uid != res.value().inode.uid) {
    return Errno::kEPERM;
  }
  Inode inode = res.value().inode;
  inode.mode = static_cast<Mode>(mode & kModeMask);
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Chown(const std::string& path, std::uint32_t uid,
                                std::uint32_t gid) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  Inode inode = res.value().inode;
  inode.uid = uid;
  inode.gid = gid;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

// ---------------------------------------------------------------------------
// Optional operations

template <typename I, typename O>
bool NamespaceFs<I, O>::Supports(FsFeature feature) const {
  switch (feature) {
    case FsFeature::kRename:
    case FsFeature::kHardLink:
    case FsFeature::kSymlink:
    case FsFeature::kAccess:
    case FsFeature::kXattr:
      return true;
    case FsFeature::kCheckpointRestore:
      return false;  // the whole point of the paper: kernel FSes lack this
  }
  return false;
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Rename(const std::string& from,
                                 const std::string& to) {
  if (from == "/" || to == "/") return Errno::kEBUSY;
  if (IsPathPrefix(from, to) && from != to) return Errno::kEINVAL;

  auto src_parent = ResolveParent(from);
  if (!src_parent.ok()) return src_parent.error();
  auto src_entries = LoadDir(src_parent.value().parent_ino);
  if (!src_entries.ok()) return src_entries.error();
  auto src_it = std::find_if(src_entries.value().begin(),
                             src_entries.value().end(),
                             [&](const RawDirEntry& e) {
                               return e.name == src_parent.value().name;
                             });
  if (src_it == src_entries.value().end()) return Errno::kENOENT;

  auto dst_parent = ResolveParent(to);
  if (!dst_parent.ok()) return dst_parent.error();

  if (!PermissionGranted(ToAttr(src_parent.value().parent_ino,
                                src_parent.value().parent),
                         options_.identity, kWOk) ||
      !PermissionGranted(ToAttr(dst_parent.value().parent_ino,
                                dst_parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }

  if (from == to) return Status::Ok();

  const RawDirEntry moving = *src_it;
  const bool same_dir =
      src_parent.value().parent_ino == dst_parent.value().parent_ino;

  auto dst_entries =
      same_dir ? src_entries : LoadDir(dst_parent.value().parent_ino);
  if (!dst_entries.ok()) return dst_entries.error();

  // Handle an existing target.
  auto dst_it = std::find_if(dst_entries.value().begin(),
                             dst_entries.value().end(),
                             [&](const RawDirEntry& e) {
                               return e.name == dst_parent.value().name;
                             });
  bool replaced_dir = false;
  if (dst_it != dst_entries.value().end()) {
    auto target = LoadInode(dst_it->ino);
    if (!target.ok()) return target.error();
    Inode target_inode = target.value();
    if (moving.type == FileType::kDirectory) {
      if (target_inode.type != FileType::kDirectory) return Errno::kENOTDIR;
      auto children = LoadDir(dst_it->ino);
      if (!children.ok()) return children.error();
      if (!children.value().empty()) return Errno::kENOTEMPTY;
      replaced_dir = true;
    } else if (target_inode.type == FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    // Drop the replaced target.
    const InodeNum victim = dst_it->ino;
    if (moving.type == FileType::kDirectory) {
      target_inode.nlink = 0;
    } else {
      --target_inode.nlink;
    }
    if (target_inode.nlink == 0) {
      if (Status s = DropInode(target_inode, victim); !s.ok()) return s;
    } else {
      target_inode.ctime_ns = NowNs();
      if (Status s = StoreInode(victim, target_inode); !s.ok()) return s;
    }
    dst_entries.value().erase(dst_it);
  }

  if (same_dir) {
    // Mutate the single entry list: remove source name, add target name.
    auto& entries = dst_entries.value();
    entries.erase(std::find_if(entries.begin(), entries.end(),
                               [&](const RawDirEntry& e) {
                                 return e.name == src_parent.value().name;
                               }));
    entries.push_back({dst_parent.value().name, moving.ino, moving.type});
    Inode parent_inode = src_parent.value().parent;
    if (replaced_dir) --parent_inode.nlink;
    return StoreDir(src_parent.value().parent_ino, parent_inode, entries);
  }

  // Cross-directory: update both entry lists and subdirectory link counts.
  auto& src_list = src_entries.value();
  src_list.erase(std::find_if(src_list.begin(), src_list.end(),
                              [&](const RawDirEntry& e) {
                                return e.name == src_parent.value().name;
                              }));
  Inode src_dir = src_parent.value().parent;
  if (moving.type == FileType::kDirectory) --src_dir.nlink;
  if (Status s = StoreDir(src_parent.value().parent_ino, src_dir, src_list);
      !s.ok()) {
    return s;
  }

  dst_entries.value().push_back(
      {dst_parent.value().name, moving.ino, moving.type});
  // Re-load the destination parent inode: storing the source list may have
  // changed shared metadata (free lists), but the dst inode itself is
  // untouched unless same_dir (handled above).
  auto dst_dir = LoadInode(dst_parent.value().parent_ino);
  if (!dst_dir.ok()) return dst_dir.error();
  Inode dst_inode = dst_dir.value();
  if (moving.type == FileType::kDirectory && !replaced_dir) ++dst_inode.nlink;
  return StoreDir(dst_parent.value().parent_ino, dst_inode,
                  dst_entries.value());
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Link(const std::string& existing,
                               const std::string& link) {
  auto src = ResolvePath(existing);
  if (!src.ok()) return src.error();
  if (src.value().inode.type == FileType::kDirectory) return Errno::kEPERM;

  auto parent = ResolveParent(link);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == parent.value().name) return Errno::kEEXIST;
  }

  Inode inode = src.value().inode;
  ++inode.nlink;
  inode.ctime_ns = NowNs();
  if (Status s = StoreInode(src.value().ino, inode); !s.ok()) return s;

  auto updated = entries.value();
  updated.push_back({parent.value().name, src.value().ino, inode.type});
  Inode parent_inode = parent.value().parent;
  return StoreDir(parent.value().parent_ino, parent_inode, updated);
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Symlink(const std::string& target,
                                  const std::string& link) {
  if (target.empty() || target.size() > kPathMax) return Errno::kEINVAL;
  auto ino = CreateNode(link, FileType::kSymlink, 0777, target);
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

template <typename I, typename O>
Result<std::string> NamespaceFs<I, O>::ReadLink(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kSymlink) return Errno::kEINVAL;
  auto data = ReadInodeData(res.value().inode, 0, res.value().inode.size);
  if (!data.ok()) return data.error();
  return std::string(AsString(data.value()));
}

template <typename I, typename O>
Status NamespaceFs<I, O>::Access(const std::string& path, std::uint32_t mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (mode == kFOk) return Status::Ok();
  return PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                           options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

// ---------------------------------------------------------------------------
// Xattrs (single xattr block per inode)

template <typename I, typename O>
auto NamespaceFs<I, O>::LoadXattrs(const Inode& inode) -> Result<XattrMap> {
  XattrMap out;
  if (inode.xattr_block == 0) return out;
  auto raw = ReadBlock(inode.xattr_block);
  if (!raw.ok()) return raw.error();
  try {
    ByteReader r(raw.value());
    const std::uint32_t count = r.GetU32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.GetString();
      Bytes value = r.GetBlob();
      out[std::move(name)] = std::move(value);
    }
    return out;
  } catch (const std::out_of_range&) {
    return Errno::kEIO;  // corrupted xattr block
  }
}

template <typename I, typename O>
Status NamespaceFs<I, O>::StoreXattrs(Inode& inode, const XattrMap& xattrs) {
  if (xattrs.empty()) {
    if (inode.xattr_block != 0) {
      if (Status s = FreeBlock(inode.xattr_block); !s.ok()) return s;
      inode.xattr_block = 0;
    }
    return Status::Ok();
  }
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(xattrs.size()));
  for (const auto& [name, value] : xattrs) {
    w.PutString(name);
    w.PutBlob(value);
  }
  if (w.size() > options_.block_size) return Errno::kENOSPC;
  if (inode.xattr_block == 0) {
    auto alloc = AllocBlock();
    if (!alloc.ok()) return alloc.error();
    inode.xattr_block = alloc.value();
  }
  return WriteBlock(inode.xattr_block, w.bytes());
}

template <typename I, typename O>
Status NamespaceFs<I, O>::SetXattr(const std::string& path,
                                   const std::string& name, ByteView value) {
  if (name.empty() || name.size() > kNameMax) return Errno::kEINVAL;
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  Inode inode = res.value().inode;
  auto xattrs = LoadXattrs(inode);
  if (!xattrs.ok()) return xattrs.error();
  xattrs.value()[name] = Bytes(value.begin(), value.end());
  if (Status s = StoreXattrs(inode, xattrs.value()); !s.ok()) return s;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

template <typename I, typename O>
Result<Bytes> NamespaceFs<I, O>::GetXattr(const std::string& path,
                                          const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  auto it = xattrs.value().find(name);
  if (it == xattrs.value().end()) return Errno::kENODATA;
  return it->second;
}

template <typename I, typename O>
Result<std::vector<std::string>> NamespaceFs<I, O>::ListXattr(
    const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  std::vector<std::string> names;
  names.reserve(xattrs.value().size());
  for (const auto& [name, value] : xattrs.value()) names.push_back(name);
  return names;
}

template <typename I, typename O>
Status NamespaceFs<I, O>::RemoveXattr(const std::string& path,
                                      const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  Inode inode = res.value().inode;
  auto xattrs = LoadXattrs(inode);
  if (!xattrs.ok()) return xattrs.error();
  if (xattrs.value().erase(name) == 0) return Errno::kENODATA;
  if (Status s = StoreXattrs(inode, xattrs.value()); !s.ok()) return s;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

}  // namespace mcfs::fs
