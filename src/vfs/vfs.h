// The VFS layer: the "kernel" through which MCFS drives each file system.
//
// Vfs wraps one FileSystem and mediates every operation through kernel-
// style caches (DentryCache + AttrCache). Cache hits are answered without
// consulting the file system — that is what makes the caches useful, and
// also what makes them dangerous: if the file system's persistent state
// is restored by the model checker without remounting, the caches keep
// serving the pre-restore world (paper §3.2).
//
// Mount/unmount charge realistic syscall costs to the SimClock; the
// paper's remount-per-operation workaround is expensive for exactly this
// reason (§6 measures 38-70% speedups from removing it).
#pragma once

#include <string>
#include <unordered_map>

#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "util/sim_clock.h"
#include "vfs/cache.h"

namespace mcfs::vfs {

struct VfsOptions {
  // Fixed syscall-path overheads charged to the SimClock (device time is
  // charged separately by the devices themselves). Mount/unmount carry
  // the kernel-side work a real (re)mount does — superblock validation,
  // orphan processing, cache teardown, sync barriers — calibrated so the
  // remount-per-op strategy lands near the paper's ~230 ops/s for the
  // ext2/ext4 RAM-disk pair.
  SimClock::Nanos mount_cost = 100'000;   // 100 us
  SimClock::Nanos unmount_cost = 60'000;  // 60 us
  SimClock::Nanos syscall_cost = 2'000;    // 2 us per VFS entry
  // Disable to bypass the caches entirely (ablation / debugging).
  bool enable_caches = true;
};

// Process-level file descriptor.
using Fd = std::int32_t;

// The VFS is the kernel a file system's cache invalidations reach: the
// in-process daemon calls its KernelNotifier overrides directly, and a
// FUSE or NFS client forwards the host's notifications to them.
class Vfs final : public fs::KernelNotifier {
 public:
  // `clock` may be null (no time accounting).
  Vfs(fs::FileSystemPtr filesystem, SimClock* clock, VfsOptions options = {});

  // ---- mount lifecycle --------------------------------------------------
  Status Mount();
  Status Unmount();
  bool IsMounted() const { return fs_->IsMounted(); }

  // ---- cache-mediated operations -----------------------------------------
  Result<fs::InodeAttr> Stat(const std::string& path);
  Status Mkdir(const std::string& path, fs::Mode mode);
  Status Rmdir(const std::string& path);
  Status Unlink(const std::string& path);
  Result<std::vector<fs::DirEntry>> GetDents(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  Status Link(const std::string& existing, const std::string& link);
  Status Symlink(const std::string& target, const std::string& link);
  Result<std::string> ReadLink(const std::string& path);
  Status Access(const std::string& path, std::uint32_t mode);
  Status Truncate(const std::string& path, std::uint64_t size);
  Status Chmod(const std::string& path, fs::Mode mode);
  Status Chown(const std::string& path, std::uint32_t uid, std::uint32_t gid);
  Result<fs::StatVfs> StatFs();
  Status SetXattr(const std::string& path, const std::string& name,
                  ByteView value);
  Result<Bytes> GetXattr(const std::string& path, const std::string& name);
  Result<std::vector<std::string>> ListXattr(const std::string& path);
  Status RemoveXattr(const std::string& path, const std::string& name);

  // ---- descriptor-based I/O ----------------------------------------------
  Result<Fd> Open(const std::string& path, std::uint32_t flags,
                  fs::Mode mode);
  Status Close(Fd fd);
  Result<Bytes> Read(Fd fd, std::uint64_t offset, std::uint64_t size);
  Result<std::uint64_t> Write(Fd fd, std::uint64_t offset, ByteView data);
  Status Fsync(Fd fd);

  // ---- cache control (FUSE lowlevel notify analogues) ---------------------
  // fuse_lowlevel_notify_inval_entry: drop one (parent, name) binding.
  void InvalEntry(const std::string& parent_path,
                  const std::string& name) override;
  // fuse_lowlevel_notify_inval_inode: drop cached attributes of one inode.
  void InvalInode(fs::InodeNum ino) override;
  // Drop everything (what a real unmount guarantees, paper §3.2).
  void DropCaches();

  // ---- introspection ------------------------------------------------------
  fs::FileSystem& filesystem() { return *fs_; }
  const fs::FileSystemPtr& filesystem_ptr() const { return fs_; }
  DentryCache& dcache() { return dcache_; }
  AttrCache& icache() { return icache_; }
  std::size_t open_fd_count() const { return fds_.size(); }

 private:
  struct FdRecord {
    fs::FileHandle handle;
    std::string path;
  };

  void Charge(SimClock::Nanos ns) {
    if (clock_ != nullptr) clock_->Advance(ns);
  }
  void ChargeSyscall() { Charge(options_.syscall_cost); }
  bool caches_on() const { return options_.enable_caches; }
  // Refreshes dcache/icache from a successful GetAttr.
  void CacheAttr(const std::string& path, const fs::InodeAttr& attr);
  void InvalidateAfterChange(const std::string& path);

  fs::FileSystemPtr fs_;
  SimClock* clock_;
  VfsOptions options_;
  DentryCache dcache_;
  AttrCache icache_;
  std::unordered_map<Fd, FdRecord> fds_;
  Fd next_fd_ = 3;  // 0/1/2 are taken, as tradition demands
};

}  // namespace mcfs::vfs
