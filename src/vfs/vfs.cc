#include "vfs/vfs.h"

#include <utility>

#include "fs/path.h"

namespace mcfs::vfs {

Vfs::Vfs(fs::FileSystemPtr filesystem, SimClock* clock, VfsOptions options)
    : fs_(std::move(filesystem)), clock_(clock), options_(options) {}

Status Vfs::Mount() {
  Charge(options_.mount_cost);
  if (Status s = fs_->Mount(); !s.ok()) return s;
  // A fresh mount starts with cold caches — this is the coherence
  // guarantee the paper's remount workaround buys (§3.2).
  DropCaches();
  fds_.clear();
  return Status::Ok();
}

Status Vfs::Unmount() {
  Charge(options_.unmount_cost);
  if (Status s = fs_->Unmount(); !s.ok()) return s;
  DropCaches();
  fds_.clear();
  return Status::Ok();
}

void Vfs::DropCaches() {
  dcache_.Clear();
  icache_.Clear();
}

void Vfs::InvalEntry(const std::string& parent_path,
                     const std::string& name) {
  const std::string path =
      parent_path == "/" ? "/" + name : parent_path + "/" + name;
  dcache_.InvalidateEntry(path);
}

void Vfs::InvalInode(fs::InodeNum ino) {
  icache_.Invalidate(ino);
  dcache_.InvalidateInode(ino);
}

void Vfs::CacheAttr(const std::string& path, const fs::InodeAttr& attr) {
  if (!caches_on()) return;
  dcache_.InsertPositive(path, attr.ino);
  icache_.Insert(attr);
}

void Vfs::InvalidateAfterChange(const std::string& path) {
  if (!caches_on()) return;
  if (auto entry = dcache_.Lookup(path);
      entry && entry->state == DentryCache::State::kPositive) {
    icache_.Invalidate(entry->ino);
  }
  dcache_.InvalidateSubtree(path);
  // The parent directory's size/mtime changed too.
  if (auto parent = dcache_.Lookup(fs::ParentPath(path));
      parent && parent->state == DentryCache::State::kPositive) {
    icache_.Invalidate(parent->ino);
  }
}

// ---------------------------------------------------------------------------
// Cache-mediated path operations

Result<fs::InodeAttr> Vfs::Stat(const std::string& path) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path)) {
      if (entry->state == DentryCache::State::kNegative) {
        return Errno::kENOENT;  // answered from the (possibly stale) dcache
      }
      if (auto attr = icache_.Lookup(entry->ino)) return *attr;
    }
  }
  auto attr = fs_->GetAttr(path);
  if (attr.ok()) {
    CacheAttr(path, attr.value());
  } else if (attr.error() == Errno::kENOENT && caches_on()) {
    dcache_.InsertNegative(path);
  }
  return attr;
}

Status Vfs::Mkdir(const std::string& path, fs::Mode mode) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kPositive) {
      // The kernel answers from the dcache without consulting the file
      // system — the exact mechanism behind the paper's second VeriFS1
      // bug ("claiming the directory existed — but in fact it did not").
      return Errno::kEEXIST;
    }
  }
  Status s = fs_->Mkdir(path, mode);
  if (s.ok()) InvalidateAfterChange(path);
  return s;
}

Status Vfs::Rmdir(const std::string& path) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  Status s = fs_->Rmdir(path);
  if (s.ok()) {
    InvalidateAfterChange(path);
    if (caches_on()) dcache_.InsertNegative(path);
  }
  return s;
}

Status Vfs::Unlink(const std::string& path) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  Status s = fs_->Unlink(path);
  if (s.ok()) {
    InvalidateAfterChange(path);
    if (caches_on()) dcache_.InsertNegative(path);
  }
  return s;
}

Result<std::vector<fs::DirEntry>> Vfs::GetDents(const std::string& path) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  auto entries = fs_->ReadDir(path);
  if (entries.ok() && caches_on()) {
    // Readdir warms the dcache with child bindings, like the kernel's
    // readdirplus path — widening the staleness surface.
    for (const auto& e : entries.value()) {
      const std::string child =
          path == "/" ? "/" + e.name : path + "/" + e.name;
      dcache_.InsertPositive(child, e.ino);
    }
  }
  return entries;
}

Status Vfs::Rename(const std::string& from, const std::string& to) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(from);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  Status s = fs_->Rename(from, to);
  if (s.ok()) {
    InvalidateAfterChange(from);
    InvalidateAfterChange(to);
    if (caches_on()) dcache_.InsertNegative(from);
  }
  return s;
}

Status Vfs::Link(const std::string& existing, const std::string& link) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(link);
        entry && entry->state == DentryCache::State::kPositive) {
      return Errno::kEEXIST;
    }
  }
  Status s = fs_->Link(existing, link);
  if (s.ok()) {
    InvalidateAfterChange(link);
    InvalidateAfterChange(existing);  // nlink changed
  }
  return s;
}

Status Vfs::Symlink(const std::string& target, const std::string& link) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(link);
        entry && entry->state == DentryCache::State::kPositive) {
      return Errno::kEEXIST;
    }
  }
  Status s = fs_->Symlink(target, link);
  if (s.ok()) InvalidateAfterChange(link);
  return s;
}

Result<std::string> Vfs::ReadLink(const std::string& path) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  return fs_->ReadLink(path);
}

Status Vfs::Access(const std::string& path, std::uint32_t mode) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  return fs_->Access(path, mode);
}

Status Vfs::Truncate(const std::string& path, std::uint64_t size) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative) {
      return Errno::kENOENT;
    }
  }
  Status s = fs_->Truncate(path, size);
  if (s.ok()) InvalidateAfterChange(path);
  return s;
}

Status Vfs::Chmod(const std::string& path, fs::Mode mode) {
  ChargeSyscall();
  Status s = fs_->Chmod(path, mode);
  if (s.ok()) InvalidateAfterChange(path);
  return s;
}

Status Vfs::Chown(const std::string& path, std::uint32_t uid,
                  std::uint32_t gid) {
  ChargeSyscall();
  Status s = fs_->Chown(path, uid, gid);
  if (s.ok()) InvalidateAfterChange(path);
  return s;
}

Result<fs::StatVfs> Vfs::StatFs() {
  ChargeSyscall();
  return fs_->StatFs();
}

Status Vfs::SetXattr(const std::string& path, const std::string& name,
                     ByteView value) {
  ChargeSyscall();
  return fs_->SetXattr(path, name, value);
}

Result<Bytes> Vfs::GetXattr(const std::string& path,
                            const std::string& name) {
  ChargeSyscall();
  return fs_->GetXattr(path, name);
}

Result<std::vector<std::string>> Vfs::ListXattr(const std::string& path) {
  ChargeSyscall();
  return fs_->ListXattr(path);
}

Status Vfs::RemoveXattr(const std::string& path, const std::string& name) {
  ChargeSyscall();
  return fs_->RemoveXattr(path, name);
}

// ---------------------------------------------------------------------------
// Descriptor I/O

Result<Fd> Vfs::Open(const std::string& path, std::uint32_t flags,
                     fs::Mode mode) {
  ChargeSyscall();
  if (caches_on()) {
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kPositive &&
        (flags & fs::kCreate) && (flags & fs::kExcl)) {
      return Errno::kEEXIST;
    }
    if (auto entry = dcache_.Lookup(path);
        entry && entry->state == DentryCache::State::kNegative &&
        !(flags & fs::kCreate)) {
      return Errno::kENOENT;
    }
  }
  auto handle = fs_->Open(path, flags, mode);
  if (!handle.ok()) return handle.error();
  const Fd fd = next_fd_++;
  fds_[fd] = FdRecord{handle.value(), path};
  if (flags & (fs::kCreate | fs::kTrunc)) InvalidateAfterChange(path);
  return fd;
}

Status Vfs::Close(Fd fd) {
  ChargeSyscall();
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Errno::kEBADF;
  Status s = fs_->Close(it->second.handle);
  fds_.erase(it);
  return s;
}

Result<Bytes> Vfs::Read(Fd fd, std::uint64_t offset, std::uint64_t size) {
  ChargeSyscall();
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Errno::kEBADF;
  auto data = fs_->Read(it->second.handle, offset, size);
  if (data.ok() && caches_on()) {
    // Reads move atime; drop the cached attrs so stat refetches them
    // (the kernel maintains its cached atime the same way).
    if (auto entry = dcache_.Lookup(it->second.path);
        entry && entry->state == DentryCache::State::kPositive) {
      icache_.Invalidate(entry->ino);
    }
  }
  return data;
}

Result<std::uint64_t> Vfs::Write(Fd fd, std::uint64_t offset, ByteView data) {
  ChargeSyscall();
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Errno::kEBADF;
  auto written = fs_->Write(it->second.handle, offset, data);
  if (written.ok()) {
    // Size/mtime changed; the cached attributes are stale.
    if (caches_on()) {
      if (auto entry = dcache_.Lookup(it->second.path);
          entry && entry->state == DentryCache::State::kPositive) {
        icache_.Invalidate(entry->ino);
      }
    }
  }
  return written;
}

Status Vfs::Fsync(Fd fd) {
  ChargeSyscall();
  auto it = fds_.find(fd);
  if (it == fds_.end()) return Errno::kEBADF;
  return fs_->Fsync(it->second.handle);
}

}  // namespace mcfs::vfs
