#include "verifs/verifs1.h"

#include <algorithm>

#include "fs/path.h"

namespace mcfs::verifs {

Verifs1::Verifs1(Verifs1Options options) : VerifsCore(std::move(options)) {}

// ---------------------------------------------------------------------------
// Lifecycle

Status Verifs1::Mkfs() {
  if (mounted_) return Errno::kEBUSY;
  inodes_.Assign(options_.inode_count);
  Inode& root = inodes_.Mut(kRootIndex);
  root.used = true;
  root.type = fs::FileType::kDirectory;
  root.mode = 0755;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
  root.parent = kRootIndex;
  // Snapshots taken before this reformat can no longer be restored via
  // the O(dirty) log; force them onto the full-invalidation path.
  inval_log_.Overflow();
  return Status::Ok();
}

Result<std::uint32_t> Verifs1::AllocInode() {
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    if (!inodes_.Get(i).used) return i;
  }
  return Errno::kENOSPC;  // the fixed-length array is full
}

std::uint32_t Verifs1::ComputeNlink(const Inode& inode) const {
  if (inode.type != fs::FileType::kDirectory) return 1;  // no hard links
  std::uint32_t n = 2;
  for (const auto& [name, child] : inode.children) {
    if (inodes_.Get(child).type == fs::FileType::kDirectory) ++n;
  }
  return n;
}

fs::InodeAttr Verifs1::ToAttr(std::uint32_t index, const Inode& inode) const {
  fs::InodeAttr attr;
  attr.ino = index + 1;  // inode numbers are 1-based externally
  attr.type = inode.type;
  attr.mode = inode.mode;
  attr.nlink = ComputeNlink(inode);
  attr.uid = inode.uid;
  attr.gid = inode.gid;
  attr.size = inode.type == fs::FileType::kDirectory
                  ? inode.children.size() * 32
                  : inode.size + (options_.bugs.stat_size_off_by_one ? 1 : 0);
  attr.atime_ns = inode.atime_ns;
  attr.mtime_ns = inode.mtime_ns;
  attr.ctime_ns = inode.ctime_ns;
  attr.blocks = (inode.size + 511) / 512;
  return attr;
}

// ---------------------------------------------------------------------------
// File sizing — where historical bug #1 lives

void Verifs1::SetFileSize(Inode& inode, std::uint64_t new_size,
                          bool zero_growth) {
  const std::uint64_t old_physical = inode.buf.size();
  if (new_size > old_physical) {
    inode.buf.resize(new_size);  // fresh bytes are zero either way
  }
  if (new_size > inode.size && zero_growth) {
    // Clear the reused region between the old logical end and the new
    // one. Bug #1 omitted exactly this memset, exposing bytes from a
    // previous, longer incarnation of the file (paper §6). Bytes past
    // the old physical end are zero already (fresh COW blocks), so only
    // the reused tail needs the wipe.
    const std::uint64_t zero_end = std::min(new_size, old_physical);
    if (zero_end > inode.size) inode.buf.Zero(inode.size, zero_end - inode.size);
  }
  inode.size = new_size;
  // Physical bytes are never reclaimed on shrink: the buffer is the
  // "contiguous memory buffer attached to each inode" of the paper.
}

// ---------------------------------------------------------------------------
// Namespace operations

Status Verifs1::Mkdir(const std::string& path, fs::Mode mode) {
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  const std::uint32_t parent_index = parent.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  if (inodes_.Get(parent_index).children.contains(parent.value().name)) {
    // Mutant: the error path scribbles on the PARENT before reporting —
    // the errno is right, the state one hop up is not.
    if (options_.bugs.mkdir_eexist_chowns_parent) {
      inodes_.Mut(parent_index).gid += 1;
      LogInode(parent_index);
    }
    // Mutant: the "already exists" case mapped to the wrong errno.
    return options_.bugs.mkdir_eexist_as_enoent ? Errno::kENOENT
                                                : Errno::kEEXIST;
  }
  auto slot = AllocInode();
  if (!slot.ok()) return slot.error();
  Inode& pnode = inodes_.Mut(parent_index);
  Inode& child = inodes_.Mut(slot.value());
  child = Inode{};
  child.used = true;
  child.type = fs::FileType::kDirectory;
  child.mode = static_cast<fs::Mode>(mode & fs::kModeMask);
  child.uid = options_.identity.uid;
  child.gid = options_.identity.gid;
  child.atime_ns = child.mtime_ns = child.ctime_ns = NowNs();
  child.parent = parent_index;
  pnode.children[parent.value().name] = slot.value();
  pnode.mtime_ns = NowNs();
  LogEntry(CanonicalPath(path), slot.value());
  LogInode(parent_index);
  return Status::Ok();
}

Status Verifs1::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  const std::uint32_t parent_index = parent.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  const Inode& pread = inodes_.Get(parent_index);
  auto found = pread.children.find(parent.value().name);
  if (found == pread.children.end()) {
    // Dual mutant: the missing-child case mapped to ENOTDIR in BOTH
    // families, so the relative axis agrees on the wrong errno.
    return options_.bugs.dual_rmdir_missing_as_enotdir ? Errno::kENOTDIR
                                                       : Errno::kENOENT;
  }
  const std::uint32_t victim_index = found->second;
  if (inodes_.Get(victim_index).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  // Mutant: skip the emptiness check; the orphaned children leak.
  if (!inodes_.Get(victim_index).children.empty() &&
      !options_.bugs.rmdir_ignores_nonempty) {
    return Errno::kENOTEMPTY;
  }
  const std::string canonical = CanonicalPath(path);
  // With the mutant active a populated subtree vanishes: its paths must
  // enter the log (and every descendant inode) or a later O(dirty)
  // restore would leave stale cache entries for them.
  if (!inodes_.Get(victim_index).children.empty()) {
    std::vector<std::string> sub;
    CollectPathsRec(victim_index, canonical, &sub);
    for (const auto& p : sub) inval_log_.Append(p, fs::kInvalidInode);
  }
  Inode& pnode = inodes_.Mut(parent_index);
  inodes_.Mut(victim_index) = Inode{};  // marks the slot unused
  pnode.children.erase(parent.value().name);
  pnode.mtime_ns = NowNs();
  LogEntry(canonical, victim_index);
  LogInode(parent_index);
  return Status::Ok();
}

Status Verifs1::Unlink(const std::string& path) {
  auto parent = ResolveParentRef(path);
  if (!parent.ok()) return parent.error();
  const std::uint32_t parent_index = parent.value().parent_index;
  if (!fs::PermissionGranted(
          ToAttr(parent_index, inodes_.Get(parent_index)), options_.identity,
          fs::kWOk)) {
    return Errno::kEACCES;
  }
  const Inode& pread = inodes_.Get(parent_index);
  auto found = pread.children.find(parent.value().name);
  if (found == pread.children.end()) return Errno::kENOENT;
  const std::uint32_t victim_index = found->second;
  if (inodes_.Get(victim_index).type == fs::FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  Inode& pnode = inodes_.Mut(parent_index);
  inodes_.Mut(victim_index) = Inode{};
  pnode.children.erase(parent.value().name);
  pnode.mtime_ns = NowNs();
  LogEntry(CanonicalPath(path), victim_index);
  LogInode(parent_index);
  return Status::Ok();
}

Result<std::vector<fs::DirEntry>> Verifs1::ReadDir(const std::string& path) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (inodes_.Get(index.value()).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  if (!fs::PermissionGranted(
          ToAttr(index.value(), inodes_.Get(index.value())),
          options_.identity, fs::kROk)) {
    return Errno::kEACCES;
  }
  Inode& inode = inodes_.Mut(index.value());
  inode.atime_ns = NowNs();
  LogInode(index.value());  // atime moved: the cached attr is stale
  std::vector<fs::DirEntry> out;
  out.reserve(inode.children.size());
  for (const auto& [name, child] : inode.children) {
    out.push_back({name, static_cast<fs::InodeNum>(child + 1),
                   inodes_.Get(child).type});
  }
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

Result<fs::FileHandle> Verifs1::Open(const std::string& path,
                                     std::uint32_t flags, fs::Mode mode) {
  if (!mounted_) return Errno::kEINVAL;
  auto index = ResolveIndex(path);
  std::uint32_t ino_index;
  if (!index.ok()) {
    if (index.error() != Errno::kENOENT || !(flags & fs::kCreate)) {
      return index.error();
    }
    auto parent = ResolveParentRef(path);
    if (!parent.ok()) return parent.error();
    const std::uint32_t parent_index = parent.value().parent_index;
    if (!fs::PermissionGranted(
            ToAttr(parent_index, inodes_.Get(parent_index)),
            options_.identity, fs::kWOk)) {
      return Errno::kEACCES;
    }
    auto slot = AllocInode();
    if (!slot.ok()) return slot.error();
    Inode& pnode = inodes_.Mut(parent_index);
    Inode& child = inodes_.Mut(slot.value());
    child = Inode{};
    child.used = true;
    child.type = fs::FileType::kRegular;
    child.mode = static_cast<fs::Mode>(mode & fs::kModeMask);
    child.uid = options_.identity.uid;
    child.gid = options_.identity.gid;
    child.atime_ns = child.mtime_ns = child.ctime_ns = NowNs();
    child.parent = parent_index;
    pnode.children[parent.value().name] = slot.value();
    pnode.mtime_ns = NowNs();
    LogEntry(CanonicalPath(path), slot.value());
    LogInode(parent_index);
    ino_index = slot.value();
  } else {
    if (flags & fs::kCreate && flags & fs::kExcl) return Errno::kEEXIST;
    ino_index = index.value();
    const Inode& inode = inodes_.Get(ino_index);
    const bool want_write =
        (flags & fs::kAccessModeMask) != fs::kRdOnly;
    if (inode.type == fs::FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    const std::uint32_t want =
        want_write ? ((flags & fs::kAccessModeMask) == fs::kRdWr
                          ? (fs::kROk | fs::kWOk)
                          : fs::kWOk)
                   : fs::kROk;
    if (!fs::PermissionGranted(ToAttr(ino_index, inode), options_.identity,
                               want)) {
      return Errno::kEACCES;
    }
    if ((flags & fs::kTrunc) && want_write &&
        inode.type == fs::FileType::kRegular) {
      Inode& winode = inodes_.Mut(ino_index);
      SetFileSize(winode, 0, /*zero_growth=*/true);
      winode.mtime_ns = NowNs();
      LogInode(ino_index);
    }
  }
  const fs::FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino_index, flags};
  return fh;
}

Result<std::uint64_t> Verifs1::Write(fs::FileHandle fh, std::uint64_t offset,
                                     ByteView data) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kRdOnly) {
    return Errno::kEBADF;
  }
  Inode& inode = inodes_.Mut(it->second.ino_index);
  if (it->second.flags & fs::kAppend) offset = inode.size;

  if (offset > inode.size) {
    // Writing past EOF creates a hole; VeriFS1 (correctly) zeroes it.
    SetFileSize(inode, offset, /*zero_growth=*/true);
  }
  if (offset + data.size() > inode.buf.size()) {
    inode.buf.resize(offset + data.size());
  }
  inode.buf.Write(offset, data);
  if (offset + data.size() > inode.size) inode.size = offset + data.size();
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  LogInode(it->second.ino_index);
  return data.size();
}

Status Verifs1::Truncate(const std::string& path, std::uint64_t size) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (inodes_.Get(index.value()).type == fs::FileType::kDirectory) {
    return Errno::kEISDIR;
  }
  if (!fs::PermissionGranted(
          ToAttr(index.value(), inodes_.Get(index.value())),
          options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  // Mutant: shrinking truncate silently does nothing.
  if (options_.bugs.truncate_shrink_noop &&
      size < inodes_.Get(index.value()).size) {
    return Status::Ok();
  }
  Inode& inode = inodes_.Mut(index.value());
  // Historical bug #1: expansion without zeroing the reclaimed region.
  SetFileSize(inode, size,
              /*zero_growth=*/!options_.bugs.truncate_no_zero_on_expand);
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  LogInode(index.value());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Attributes

Status Verifs1::Chmod(const std::string& path, fs::Mode mode) {
  auto index = ResolveIndex(path);
  if (!index.ok()) return index.error();
  if (!options_.identity.IsRoot() &&
      options_.identity.uid != inodes_.Get(index.value()).uid) {
    return Errno::kEPERM;
  }
  Inode& inode = inodes_.Mut(index.value());
  // Mutant: report success but never store the new mode.
  if (!options_.bugs.chmod_ignores_mode) {
    // Dual mutant: the old group bits survive the chmod in BOTH families.
    inode.mode = options_.bugs.dual_chmod_keeps_group_bits
                     ? static_cast<fs::Mode>((mode & 0707) |
                                             (inode.mode & 0070))
                     : static_cast<fs::Mode>(mode & fs::kModeMask);
  }
  inode.ctime_ns = NowNs();
  LogInode(index.value());
  return Status::Ok();
}

Result<fs::StatVfs> Verifs1::StatFs() {
  if (!mounted_) return Errno::kEINVAL;
  fs::StatVfs out;
  out.block_size = 4096;
  // "It also did not limit the amount of data that could be stored"
  // (paper §5): report a large fixed capacity.
  out.total_bytes = 1ull << 40;
  std::uint64_t used = 0;
  std::uint64_t used_inodes = 0;
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_.Get(i);
    if (inode.used) {
      ++used_inodes;
      used += inode.size;
    }
  }
  out.free_bytes = out.total_bytes - used;
  out.total_inodes = inodes_.size();
  out.free_inodes = inodes_.size() - used_inodes;
  return out;
}

bool Verifs1::Supports(fs::FsFeature feature) const {
  switch (feature) {
    case fs::FsFeature::kCheckpointRestore:
      return true;
    case fs::FsFeature::kRename:
    case fs::FsFeature::kHardLink:
    case fs::FsFeature::kSymlink:
    case fs::FsFeature::kAccess:
    case fs::FsFeature::kXattr:
      return false;  // VeriFS1's limited op set (paper §5)
  }
  return false;
}

// ---------------------------------------------------------------------------
// VerifsCore hooks: byte format and the restore mutant

Bytes Verifs1::SerializeState() const {
  ByteWriter w;
  w.PutU32(inodes_.size());
  for (std::uint32_t i = 0; i < inodes_.size(); ++i) {
    const Inode& inode = inodes_.Get(i);
    w.PutU8(inode.used ? 1 : 0);
    if (!inode.used) continue;
    w.PutU8(static_cast<std::uint8_t>(inode.type));
    w.PutU16(inode.mode);
    w.PutU32(inode.uid);
    w.PutU32(inode.gid);
    w.PutU64(inode.atime_ns);
    w.PutU64(inode.mtime_ns);
    w.PutU64(inode.ctime_ns);
    w.PutU64(inode.size);
    // The FULL physical buffer is captured, not just the logical bytes:
    // ioctl_CHECKPOINT "copies inode and file data into a snapshot pool"
    // (paper §5). Capturing less would mask stale-tail bugs (like
    // historical bug #1) whenever a restore intervened.
    w.PutBlob(inode.buf.ToBytes());
    w.PutU32(inode.parent);
    w.PutU32(static_cast<std::uint32_t>(inode.children.size()));
    for (const auto& [name, child] : inode.children) {
      w.PutString(name);
      w.PutU32(child);
    }
  }
  w.PutU64(op_counter_);
  return w.Take();
}

void Verifs1::DeserializeState(ByteView state) {
  ByteReader r(state);
  const std::uint32_t count = r.GetU32();
  inodes_.Assign(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (r.GetU8() == 0) continue;
    Inode& inode = inodes_.Mut(i);
    inode.used = true;
    inode.type = static_cast<fs::FileType>(r.GetU8());
    inode.mode = r.GetU16();
    inode.uid = r.GetU32();
    inode.gid = r.GetU32();
    inode.atime_ns = r.GetU64();
    inode.mtime_ns = r.GetU64();
    inode.ctime_ns = r.GetU64();
    inode.size = r.GetU64();
    inode.buf.Assign(r.GetBlob());  // full physical buffer, stale tail too
    inode.parent = r.GetU32();
    const std::uint32_t nchildren = r.GetU32();
    for (std::uint32_t c = 0; c < nchildren; ++c) {
      std::string name = r.GetString();
      inode.children[std::move(name)] = r.GetU32();
    }
  }
  op_counter_ = r.GetU64();
}

std::string Verifs1::PathOfIndex(std::uint32_t index) const {
  if (index == kRootIndex) return "/";
  std::vector<std::string> components;
  std::uint32_t cur = index;
  while (cur != kRootIndex) {
    const std::uint32_t parent = inodes_.Get(cur).parent;
    const Inode& pnode = inodes_.Get(parent);
    for (const auto& [name, child] : pnode.children) {
      if (child == cur) {
        components.push_back(name);
        break;
      }
    }
    cur = parent;
  }
  std::reverse(components.begin(), components.end());
  return fs::JoinPath(components);
}

void Verifs1::AfterRestore() {
  if (!options_.bugs.restore_skips_one_inode) return;
  for (std::uint32_t i = inodes_.size(); i > 1;) {
    --i;
    if (!inodes_.Get(i).used) continue;
    const std::string path = PathOfIndex(i);
    const std::uint32_t parent_index = inodes_.Get(i).parent;
    // Detach from the parent's namespace, then free the slot (children of
    // a dropped directory leak, like a lost inode would).
    Inode& parent = inodes_.Mut(parent_index);
    for (auto it = parent.children.begin(); it != parent.children.end();
         ++it) {
      if (it->second == i) {
        parent.children.erase(it);
        break;
      }
    }
    inodes_.Mut(i) = Inode{};
    // Logged like any mutation, but on the O(dirty) path Restore has
    // already taken its invalidation tail: that restore never
    // invalidates the dropped inode, and with no later snapshot live
    // the log rewind discards these records again.
    LogEntry(path, i);
    LogInode(parent_index);
    return;
  }
}

}  // namespace mcfs::verifs
