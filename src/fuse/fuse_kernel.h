// The kernel side of the FUSE pair: a FileSystem facade that marshals
// every operation through the /dev/fuse channel to the user-space host.
// This is what a Vfs mounts when the file system under test is FUSE-based
// (paper Figure 1, middle column).
//
// Reverse notifications from the host (cache invalidations emitted by
// VeriFS restores) are decoded here and forwarded to the kernel's
// notifier, the Vfs that mounts this client.
#pragma once

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fs/kernel_notifier.h"
#include "fuse/fuse_channel.h"

namespace mcfs::fuse {

class FuseClientFs final : public fs::FileSystem,
                           public fs::CheckpointableFs {
 public:
  explicit FuseClientFs(FuseChannel* channel);

  // Where host-initiated invalidations go (the Vfs that mounts this
  // client); null drops them.
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

  std::string TypeName() const override { return "fuse"; }

  // CheckpointableFs handle surface — forwarded over dedicated opcodes;
  // the daemon-side pool allocates the SnapshotIds.
  Result<fs::SnapshotId> Checkpoint() override;
  Status Restore(fs::SnapshotId id) override;
  Status Discard(fs::SnapshotId id) override;
  fs::SnapshotStats Stats() const override;

 private:
  Result<Bytes> Call(ByteView request) const;
  Status SimpleCall(ByteView request) const;

  FuseChannel* channel_;
  bool mounted_ = false;
  fs::KernelNotifier* notifier_ = nullptr;
};

}  // namespace mcfs::fuse
