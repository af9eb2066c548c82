#include "spec/spec_fs.h"

#include <algorithm>
#include <cstring>

#include "fs/path.h"
#include "util/bytes.h"

namespace mcfs::spec {
namespace {

std::string JoinChild(const std::string& parent, const std::string& name) {
  return parent == "/" ? "/" + name : parent + "/" + name;
}

}  // namespace

SpecFs::SpecFs(SpecFsOptions options) : options_(options) {}

// ---------------------------------------------------------------------------
// Lifecycle

Status SpecFs::Mkfs() {
  if (mounted_) return Errno::kEBUSY;
  names_.clear();
  inodes_.clear();
  next_ino_ = kRootIno + 1;
  SpecInode root;
  root.type = fs::FileType::kDirectory;
  root.mode = 0755;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
  names_["/"] = kRootIno;
  inodes_[kRootIno] = std::move(root);
  return Status::Ok();
}

Status SpecFs::Mount() {
  if (mounted_) return Errno::kEBUSY;
  if (names_.empty()) return Errno::kEINVAL;
  mounted_ = true;
  return Status::Ok();
}

Status SpecFs::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  mounted_ = false;
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Resolution — the POSIX precedence rules, one place

Result<std::string> SpecFs::Resolve(const std::string& path) const {
  if (!mounted_) return Errno::kEINVAL;
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  std::string cur = "/";
  for (const auto& comp : split.value()) {
    const SpecInode& node = Node(InoAt(cur));
    if (node.type != fs::FileType::kDirectory) return Errno::kENOTDIR;
    if (!fs::PermissionGranted(ToAttr(cur, InoAt(cur)), options_.identity,
                               fs::kXOk)) {
      return Errno::kEACCES;
    }
    const std::string child = JoinChild(cur, comp);
    if (!names_.contains(child)) return Errno::kENOENT;
    cur = child;
  }
  return cur;
}

Result<SpecFs::ParentRef> SpecFs::ResolveParent(const std::string& path) const {
  auto split = fs::SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;
  auto parent = Resolve(fs::ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (Node(InoAt(parent.value())).type != fs::FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ParentRef{parent.value(), split.value().back()};
}

// ---------------------------------------------------------------------------
// Derived quantities — namespace scans, no redundant state

std::uint32_t SpecFs::CountLinks(fs::InodeNum ino) const {
  std::uint32_t n = 0;
  for (const auto& [path, bound] : names_) {
    if (bound == ino && path != "/") ++n;
  }
  return n;
}

std::vector<std::pair<std::string, fs::InodeNum>> SpecFs::ChildrenOf(
    const std::string& canonical_path) const {
  std::vector<std::pair<std::string, fs::InodeNum>> out;
  const std::string prefix =
      canonical_path == "/" ? "/" : canonical_path + "/";
  for (auto it = names_.lower_bound(prefix); it != names_.end(); ++it) {
    const std::string& path = it->first;
    if (path.compare(0, prefix.size(), prefix) != 0) break;
    const std::string rest = path.substr(prefix.size());
    if (rest.empty() || rest.find('/') != std::string::npos) continue;
    out.emplace_back(rest, it->second);
  }
  return out;
}

fs::InodeAttr SpecFs::ToAttr(const std::string& canonical_path,
                             fs::InodeNum ino) const {
  const SpecInode& node = Node(ino);
  fs::InodeAttr attr;
  attr.ino = ino;
  attr.type = node.type;
  attr.mode = node.mode;
  if (node.type == fs::FileType::kDirectory) {
    const auto children = ChildrenOf(canonical_path);
    std::uint32_t n = 2;
    for (const auto& [name, child] : children) {
      if (Node(child).type == fs::FileType::kDirectory) ++n;
    }
    attr.nlink = n;
    attr.size = children.size() * 32;
  } else {
    const std::uint32_t links = CountLinks(ino);
    attr.nlink = links == 0 ? 1 : links;
    attr.size = node.data.size();
  }
  attr.uid = node.uid;
  attr.gid = node.gid;
  attr.atime_ns = node.atime_ns;
  attr.mtime_ns = node.mtime_ns;
  attr.ctime_ns = node.ctime_ns;
  attr.blocks = (attr.size + 511) / 512;
  return attr;
}

void SpecFs::ReleaseIfUnlinked(fs::InodeNum ino) {
  if (ino == kRootIno) return;
  if (CountLinks(ino) == 0) inodes_.erase(ino);
}

Result<fs::InodeNum> SpecFs::CreateChild(const ParentRef& ref,
                                         fs::FileType type, fs::Mode mode,
                                         const std::string& symlink_target) {
  const fs::InodeNum parent_ino = InoAt(ref.parent_path);
  if (!fs::PermissionGranted(ToAttr(ref.parent_path, parent_ino),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  const std::string child_path = JoinChild(ref.parent_path, ref.name);
  if (names_.contains(child_path)) return Errno::kEEXIST;
  const fs::InodeNum ino = next_ino_++;
  SpecInode child;
  child.type = type;
  child.mode = static_cast<fs::Mode>(mode & fs::kModeMask);
  child.uid = options_.identity.uid;
  child.gid = options_.identity.gid;
  child.atime_ns = child.mtime_ns = child.ctime_ns = NowNs();
  if (type == fs::FileType::kSymlink) {
    child.data.assign(symlink_target.begin(), symlink_target.end());
  }
  names_[child_path] = ino;
  inodes_[ino] = std::move(child);
  TouchParentMtime(ref.parent_path);
  return ino;
}

void SpecFs::TouchParentMtime(const std::string& parent_path) {
  MutNode(InoAt(parent_path)).mtime_ns = NowNs();
}

// ---------------------------------------------------------------------------
// Namespace operations

Result<fs::InodeAttr> SpecFs::GetAttr(const std::string& path) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  return ToAttr(target.value(), InoAt(target.value()));
}

Status SpecFs::Mkdir(const std::string& path, fs::Mode mode) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  auto child = CreateChild(parent.value(), fs::FileType::kDirectory, mode, "");
  if (!child.ok()) return child.error();
  return Status::Ok();
}

Status SpecFs::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  const fs::InodeNum parent_ino = InoAt(parent.value().parent_path);
  if (!fs::PermissionGranted(ToAttr(parent.value().parent_path, parent_ino),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  const std::string victim_path =
      JoinChild(parent.value().parent_path, parent.value().name);
  auto it = names_.find(victim_path);
  if (it == names_.end()) return Errno::kENOENT;
  const fs::InodeNum victim = it->second;
  if (Node(victim).type != fs::FileType::kDirectory) return Errno::kENOTDIR;
  if (!ChildrenOf(victim_path).empty()) return Errno::kENOTEMPTY;
  names_.erase(it);
  inodes_.erase(victim);
  TouchParentMtime(parent.value().parent_path);
  return Status::Ok();
}

Status SpecFs::Unlink(const std::string& path) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  const fs::InodeNum parent_ino = InoAt(parent.value().parent_path);
  if (!fs::PermissionGranted(ToAttr(parent.value().parent_path, parent_ino),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  const std::string victim_path =
      JoinChild(parent.value().parent_path, parent.value().name);
  auto it = names_.find(victim_path);
  if (it == names_.end()) return Errno::kENOENT;
  const fs::InodeNum victim = it->second;
  if (Node(victim).type == fs::FileType::kDirectory) return Errno::kEISDIR;
  names_.erase(it);
  TouchParentMtime(parent.value().parent_path);
  ReleaseIfUnlinked(victim);  // hard links keep the inode alive
  return Status::Ok();
}

Result<std::vector<fs::DirEntry>> SpecFs::ReadDir(const std::string& path) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const fs::InodeNum ino = InoAt(target.value());
  if (Node(ino).type != fs::FileType::kDirectory) return Errno::kENOTDIR;
  if (!fs::PermissionGranted(ToAttr(target.value(), ino), options_.identity,
                             fs::kROk)) {
    return Errno::kEACCES;
  }
  MutNode(ino).atime_ns = NowNs();
  std::vector<fs::DirEntry> out;
  for (const auto& [name, child] : ChildrenOf(target.value())) {
    out.push_back({name, child, Node(child).type});
  }
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

Result<fs::FileHandle> SpecFs::Open(const std::string& path,
                                    std::uint32_t flags, fs::Mode mode) {
  if (!mounted_) return Errno::kEINVAL;
  auto target = Resolve(path);
  fs::InodeNum ino;
  if (!target.ok()) {
    if (target.error() != Errno::kENOENT || !(flags & fs::kCreate)) {
      return target.error();
    }
    auto parent = ResolveParent(path);
    if (!parent.ok()) return parent.error();
    auto child = CreateChild(parent.value(), fs::FileType::kRegular, mode, "");
    if (!child.ok()) return child.error();
    ino = child.value();
  } else {
    if (flags & fs::kCreate && flags & fs::kExcl) return Errno::kEEXIST;
    ino = InoAt(target.value());
    const SpecInode& node = Node(ino);
    const bool want_write = (flags & fs::kAccessModeMask) != fs::kRdOnly;
    if (node.type == fs::FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    if (node.type == fs::FileType::kSymlink) return Errno::kELOOP;
    const std::uint32_t want =
        want_write ? ((flags & fs::kAccessModeMask) == fs::kRdWr
                          ? (fs::kROk | fs::kWOk)
                          : fs::kWOk)
                   : fs::kROk;
    if (!fs::PermissionGranted(ToAttr(target.value(), ino), options_.identity,
                               want)) {
      return Errno::kEACCES;
    }
    if ((flags & fs::kTrunc) && want_write &&
        node.type == fs::FileType::kRegular) {
      SpecInode& wnode = MutNode(ino);
      wnode.data.clear();
      wnode.mtime_ns = NowNs();
    }
  }
  const fs::FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino, flags};
  return fh;
}

Status SpecFs::Close(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

Result<Bytes> SpecFs::Read(fs::FileHandle fh, std::uint64_t offset,
                           std::uint64_t size) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kWrOnly) {
    return Errno::kEBADF;
  }
  auto node_it = inodes_.find(it->second.ino);
  if (node_it == inodes_.end()) return Errno::kEBADF;  // unlinked-while-open
  SpecInode& node = node_it->second;
  if (node.type == fs::FileType::kDirectory) return Errno::kEISDIR;
  node.atime_ns = NowNs();
  if (offset >= node.data.size()) return Bytes{};
  const std::uint64_t n = std::min<std::uint64_t>(
      size, node.data.size() - offset);
  return Bytes(node.data.begin() + offset, node.data.begin() + offset + n);
}

Result<std::uint64_t> SpecFs::Write(fs::FileHandle fh, std::uint64_t offset,
                                    ByteView data) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & fs::kAccessModeMask) == fs::kRdOnly) {
    return Errno::kEBADF;
  }
  auto node_it = inodes_.find(it->second.ino);
  if (node_it == inodes_.end()) return Errno::kEBADF;  // unlinked-while-open
  SpecInode& node = node_it->second;
  if (it->second.flags & fs::kAppend) offset = node.data.size();
  const std::uint64_t required = offset + data.size();
  // Holes read as zeros: resize() zero-fills, and there is no capacity
  // buffer whose stale tail could leak (historical bugs #1/#3 cannot be
  // expressed in this state model).
  if (required > node.data.size()) node.data.resize(required);
  std::copy(data.begin(), data.end(), node.data.begin() + offset);
  node.mtime_ns = NowNs();
  node.ctime_ns = node.mtime_ns;
  return data.size();
}

Status SpecFs::Truncate(const std::string& path, std::uint64_t size) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const fs::InodeNum ino = InoAt(target.value());
  if (Node(ino).type == fs::FileType::kDirectory) return Errno::kEISDIR;
  if (!fs::PermissionGranted(ToAttr(target.value(), ino), options_.identity,
                             fs::kWOk)) {
    return Errno::kEACCES;
  }
  SpecInode& node = MutNode(ino);
  node.data.resize(size);  // growth zero-fills, shrink discards
  node.mtime_ns = NowNs();
  node.ctime_ns = node.mtime_ns;
  return Status::Ok();
}

Status SpecFs::Fsync(fs::FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  // No volatile/persistent split: every committed operation is already
  // "durable" by definition, so fsync only validates the handle.
  return open_files_.contains(fh) ? Status::Ok() : Status(Errno::kEBADF);
}

// ---------------------------------------------------------------------------
// Attributes

Status SpecFs::Chmod(const std::string& path, fs::Mode mode) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const fs::InodeNum ino = InoAt(target.value());
  if (!options_.identity.IsRoot() && options_.identity.uid != Node(ino).uid) {
    return Errno::kEPERM;
  }
  SpecInode& node = MutNode(ino);
  node.mode = static_cast<fs::Mode>(mode & fs::kModeMask);
  node.ctime_ns = NowNs();
  return Status::Ok();
}

Status SpecFs::Chown(const std::string& path, std::uint32_t uid,
                     std::uint32_t gid) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  SpecInode& node = MutNode(InoAt(target.value()));
  node.uid = uid;
  node.gid = gid;
  node.ctime_ns = NowNs();
  return Status::Ok();
}

Result<fs::StatVfs> SpecFs::StatFs() {
  if (!mounted_) return Errno::kEINVAL;
  fs::StatVfs out;
  out.block_size = 4096;
  out.total_bytes = kVirtualTotalBytes;
  std::uint64_t used = 0;
  for (const auto& [ino, node] : inodes_) used += node.data.size();
  out.free_bytes = used >= out.total_bytes ? 0 : out.total_bytes - used;
  out.total_inodes = 0xffffffff;
  out.free_inodes = 0xffffffff - inodes_.size();
  return out;
}

bool SpecFs::Supports(fs::FsFeature feature) const {
  switch (feature) {
    case fs::FsFeature::kCheckpointRestore:
    case fs::FsFeature::kRename:
    case fs::FsFeature::kHardLink:
    case fs::FsFeature::kSymlink:
    case fs::FsFeature::kAccess:
    case fs::FsFeature::kXattr:
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Optional operations

Status SpecFs::Rename(const std::string& from, const std::string& to) {
  if (from == "/" || to == "/") return Errno::kEBUSY;
  if (fs::IsPathPrefix(from, to) && from != to) return Errno::kEINVAL;

  auto src = ResolveParent(from);
  if (!src.ok()) return src.error();
  auto dst = ResolveParent(to);
  if (!dst.ok()) return dst.error();
  const fs::InodeNum src_ino = InoAt(src.value().parent_path);
  const fs::InodeNum dst_ino = InoAt(dst.value().parent_path);
  if (!fs::PermissionGranted(ToAttr(src.value().parent_path, src_ino),
                             options_.identity, fs::kWOk) ||
      !fs::PermissionGranted(ToAttr(dst.value().parent_path, dst_ino),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }

  const std::string src_path =
      JoinChild(src.value().parent_path, src.value().name);
  const std::string dst_path =
      JoinChild(dst.value().parent_path, dst.value().name);
  auto src_it = names_.find(src_path);
  if (src_it == names_.end()) return Errno::kENOENT;
  const fs::InodeNum moving = src_it->second;
  if (src_path == dst_path) return Status::Ok();

  auto dst_it = names_.find(dst_path);
  if (dst_it != names_.end()) {
    const fs::InodeNum victim = dst_it->second;
    if (Node(moving).type == fs::FileType::kDirectory) {
      if (Node(victim).type != fs::FileType::kDirectory) {
        return Errno::kENOTDIR;
      }
      if (!ChildrenOf(dst_path).empty()) return Errno::kENOTEMPTY;
    } else if (Node(victim).type == fs::FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    names_.erase(dst_it);
    ReleaseIfUnlinked(victim);
  }

  if (Node(moving).type == fs::FileType::kDirectory) {
    // A directory move rewrites every descendant binding's key; the
    // bound inodes are untouched.
    std::vector<std::pair<std::string, fs::InodeNum>> rebound;
    for (auto it = names_.lower_bound(src_path); it != names_.end();) {
      const std::string& path = it->first;
      // Keys sharing the src_path string prefix are contiguous; within
      // them only src_path itself and "src_path/..." are the subtree
      // (not a sibling like "src_pathX").
      if (path.compare(0, src_path.size(), src_path) != 0) break;
      const bool in_subtree =
          path.size() == src_path.size() || path[src_path.size()] == '/';
      if (in_subtree) {
        rebound.emplace_back(dst_path + path.substr(src_path.size()),
                             it->second);
        it = names_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [path, ino] : rebound) names_[std::move(path)] = ino;
  } else {
    names_.erase(src_it);
    names_[dst_path] = moving;
  }
  const std::uint64_t t = NowNs();
  MutNode(src_ino).mtime_ns = t;
  MutNode(dst_ino).mtime_ns = t;
  return Status::Ok();
}

Status SpecFs::Link(const std::string& existing, const std::string& link) {
  auto src = Resolve(existing);
  if (!src.ok()) return src.error();
  const fs::InodeNum src_ino = InoAt(src.value());
  if (Node(src_ino).type == fs::FileType::kDirectory) return Errno::kEPERM;
  auto dst = ResolveParent(link);
  if (!dst.ok()) return dst.error();
  const fs::InodeNum parent_ino = InoAt(dst.value().parent_path);
  if (!fs::PermissionGranted(ToAttr(dst.value().parent_path, parent_ino),
                             options_.identity, fs::kWOk)) {
    return Errno::kEACCES;
  }
  const std::string link_path =
      JoinChild(dst.value().parent_path, dst.value().name);
  if (names_.contains(link_path)) return Errno::kEEXIST;
  names_[link_path] = src_ino;
  TouchParentMtime(dst.value().parent_path);
  MutNode(src_ino).ctime_ns = NowNs();
  return Status::Ok();
}

Status SpecFs::Symlink(const std::string& target, const std::string& link) {
  if (target.empty() || target.size() > fs::kPathMax) return Errno::kEINVAL;
  auto parent = ResolveParent(link);
  if (!parent.ok()) return parent.error();
  auto child =
      CreateChild(parent.value(), fs::FileType::kSymlink, 0777, target);
  if (!child.ok()) return child.error();
  return Status::Ok();
}

Result<std::string> SpecFs::ReadLink(const std::string& path) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const SpecInode& node = Node(InoAt(target.value()));
  if (node.type != fs::FileType::kSymlink) return Errno::kEINVAL;
  return std::string(node.data.begin(), node.data.end());
}

Status SpecFs::Access(const std::string& path, std::uint32_t mode) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  if (mode == fs::kFOk) return Status::Ok();
  return fs::PermissionGranted(ToAttr(target.value(), InoAt(target.value())),
                               options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

Status SpecFs::SetXattr(const std::string& path, const std::string& name,
                        ByteView value) {
  if (name.empty() || name.size() > fs::kNameMax) return Errno::kEINVAL;
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  SpecInode& node = MutNode(InoAt(target.value()));
  node.xattrs[name] = Bytes(value.begin(), value.end());
  node.ctime_ns = NowNs();
  return Status::Ok();
}

Result<Bytes> SpecFs::GetXattr(const std::string& path,
                               const std::string& name) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const SpecInode& node = Node(InoAt(target.value()));
  auto it = node.xattrs.find(name);
  if (it == node.xattrs.end()) return Errno::kENODATA;
  return it->second;
}

Result<std::vector<std::string>> SpecFs::ListXattr(const std::string& path) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  const SpecInode& node = Node(InoAt(target.value()));
  std::vector<std::string> out;
  out.reserve(node.xattrs.size());
  for (const auto& [name, value] : node.xattrs) out.push_back(name);
  return out;
}

Status SpecFs::RemoveXattr(const std::string& path, const std::string& name) {
  auto target = Resolve(path);
  if (!target.ok()) return target.error();
  SpecInode& node = MutNode(InoAt(target.value()));
  if (!node.xattrs.contains(name)) return Errno::kENODATA;
  node.xattrs.erase(name);
  node.ctime_ns = NowNs();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint / restore — O(state) deep copies

Bytes SpecFs::SerializeState() const {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(names_.size()));
  for (const auto& [path, ino] : names_) {
    w.PutString(path);
    w.PutU64(ino);
  }
  w.PutU32(static_cast<std::uint32_t>(inodes_.size()));
  for (const auto& [ino, node] : inodes_) {
    w.PutU64(ino);
    w.PutU8(static_cast<std::uint8_t>(node.type));
    w.PutU16(node.mode);
    w.PutU32(node.uid);
    w.PutU32(node.gid);
    w.PutU64(node.atime_ns);
    w.PutU64(node.mtime_ns);
    w.PutU64(node.ctime_ns);
    w.PutBlob(node.data);
    w.PutU32(static_cast<std::uint32_t>(node.xattrs.size()));
    for (const auto& [name, value] : node.xattrs) {
      w.PutString(name);
      w.PutBlob(value);
    }
  }
  w.PutU64(next_ino_);
  w.PutU64(op_counter_);
  return w.Take();
}

void SpecFs::DeserializeState(ByteView state) {
  ByteReader r(state);
  names_.clear();
  inodes_.clear();
  const std::uint32_t nnames = r.GetU32();
  for (std::uint32_t i = 0; i < nnames; ++i) {
    std::string path = r.GetString();
    names_[std::move(path)] = r.GetU64();
  }
  const std::uint32_t ninodes = r.GetU32();
  for (std::uint32_t i = 0; i < ninodes; ++i) {
    const fs::InodeNum ino = r.GetU64();
    SpecInode node;
    node.type = static_cast<fs::FileType>(r.GetU8());
    node.mode = r.GetU16();
    node.uid = r.GetU32();
    node.gid = r.GetU32();
    node.atime_ns = r.GetU64();
    node.mtime_ns = r.GetU64();
    node.ctime_ns = r.GetU64();
    node.data = r.GetBlob();
    const std::uint32_t nxattrs = r.GetU32();
    for (std::uint32_t x = 0; x < nxattrs; ++x) {
      std::string name = r.GetString();
      node.xattrs[std::move(name)] = r.GetBlob();
    }
    inodes_[ino] = std::move(node);
  }
  next_ino_ = r.GetU64();
  op_counter_ = r.GetU64();
}

void SpecFs::InvalidateKernelCaches(std::vector<std::string> extra_paths,
                                    std::vector<fs::InodeNum> extra_inos) {
  if (notifier_ == nullptr) return;
  std::vector<std::string> paths = std::move(extra_paths);
  for (const auto& [path, ino] : names_) {
    if (path != "/") paths.push_back(path);
  }
  std::vector<fs::InodeNum> inos = std::move(extra_inos);
  for (const auto& [ino, node] : inodes_) inos.push_back(ino);
  fs::NotifyInvalidations(*notifier_, std::move(paths), std::move(inos));
}

Result<fs::SnapshotId> SpecFs::Checkpoint() {
  if (!mounted_) return Errno::kEINVAL;
  const fs::SnapshotId id = next_snapshot_++;
  snapshots_[id] = SerializeState();
  return id;
}

Status SpecFs::Restore(fs::SnapshotId id) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return Errno::kENOENT;
  std::vector<std::string> pre_paths;
  for (const auto& [path, ino] : names_) {
    if (path != "/") pre_paths.push_back(path);
  }
  std::vector<fs::InodeNum> pre_inos;
  for (const auto& [ino, node] : inodes_) pre_inos.push_back(ino);
  DeserializeState(it->second);
  open_files_.clear();
  InvalidateKernelCaches(std::move(pre_paths), std::move(pre_inos));
  return Status::Ok();
}

Status SpecFs::Discard(fs::SnapshotId id) {
  return snapshots_.erase(id) == 1 ? Status::Ok() : Status(Errno::kENOENT);
}

fs::SnapshotStats SpecFs::Stats() const {
  fs::SnapshotStats stats;
  stats.count = snapshots_.size();
  for (const auto& [id, image] : snapshots_) {
    stats.total_bytes += image.size();
  }
  // Deep copies share nothing with each other or the live state.
  stats.exclusive_bytes = stats.total_bytes;
  return stats;
}

void SpecFs::ImportState(ByteView state) {
  std::vector<std::string> pre_paths;
  for (const auto& [path, ino] : names_) {
    if (path != "/") pre_paths.push_back(path);
  }
  std::vector<fs::InodeNum> pre_inos;
  for (const auto& [ino, node] : inodes_) pre_inos.push_back(ino);
  DeserializeState(state);
  open_files_.clear();
  InvalidateKernelCaches(std::move(pre_paths), std::move(pre_inos));
}

}  // namespace mcfs::spec
