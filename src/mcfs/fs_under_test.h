// FsUnderTest: one file system plus everything MCFS needs to drive it —
// the backing device, the VFS ("kernel") on top, the FUSE plumbing when
// applicable, and a concrete-state capture strategy.
//
// Strategies (paper §3.2, §5):
//   * kRemountPerOp — the kernel-file-system workaround: unmount after
//     every operation so the on-disk image is the complete state; save =
//     device snapshot, restore = device rewrite + remount. Safe, slow.
//   * kMountOnce — the broken fast path: stay mounted and snapshot the
//     (dirty) device underneath. Restores desynchronize the caches from
//     the disk, reproducing the §3.2 corruption. Exists for the remount
//     ablation and the corruption demonstrations.
//   * kIoctl — the paper's proposal: the file system itself implements
//     ioctl_CHECKPOINT/ioctl_RESTORE (VeriFS). No remounts, no
//     incoherency (the FS invalidates kernel caches on restore).
//   * kVmSnapshot — hypervisor-grade: coherent but charged at LightVM
//     latencies (~30 ms / ~20 ms), capping throughput at 20-30 ops/s.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "fs/filesystem.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/mount_state.h"
#include "fs/perms.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "nfs/ganesha.h"
#include "snapshot/criu.h"
#include "snapshot/vm.h"
#include "storage/crashable_disk.h"
#include "storage/mtd_device.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"
#include "vfs/vfs.h"

namespace mcfs::core {

// kSpec is the executable POSIX specification (src/spec/spec_fs.h): no
// device, no FUSE/NFS transport, no crash mode — an engine member like
// any other, or the absolute oracle of a panel (EngineOptions::
// oracle_index).
enum class FsKind { kExt2, kExt4, kXfs, kJffs2, kVerifs1, kVerifs2, kSpec };
enum class Backend { kRam, kHdd, kSsd };  // kernel FSes only (jffs2 = MTD)
// kVfsApi is the paper's §7 future-work strategy: the kernel file system
// implements fs::MountStateCapture, so state capture = device snapshot +
// in-memory mount state, with no remount and no cache incoherency.
// kCriu snapshots the daemon process — possible only for the NFS
// (socket) transport; CRIU refuses FUSE daemons (paper §5).
enum class StateStrategy {
  kRemountPerOp,
  kMountOnce,
  kIoctl,
  kVmSnapshot,
  kVfsApi,
  kCriu,
};

std::string_view FsKindName(FsKind kind);

struct FsUnderTestConfig {
  FsKind kind = FsKind::kExt2;
  Backend backend = Backend::kRam;
  StateStrategy strategy = StateStrategy::kRemountPerOp;
  // ext2f/ext4f: write-back cache capacity in blocks (0 = unbounded).
  // Small values force eviction, which is what turns an unsynchronized
  // restore (kMountOnce) into visible §3.2 corruption.
  std::uint32_t block_cache_capacity = 64;
  // VeriFS only: route operations through the FUSE channel (the paper's
  // deployment); off = direct in-process calls (unit tests).
  bool fuse_transport = true;
  // VeriFS only: host the file system in a Ganesha-style NFS server
  // (socket transport) instead of FUSE — the deployment CRIU can
  // snapshot (paper §5). Overrides fuse_transport.
  bool nfs_transport = false;
  // Wrap the backing device in a CrashableDisk so the crash-exploration
  // mode can journal in-flight writes and enumerate crash states.
  // Kernel file systems only (VeriFS has no device to crash).
  bool crashable_device = false;
  // VeriFS only: structurally-shared (copy-on-write) snapshots — O(1)
  // checkpoint, O(dirty) restore. Off = the original copy-the-world
  // serialization per snapshot (the differential baseline).
  bool cow_snapshots = true;
  verifs::VerifsBugs bugs;
  fs::Identity identity;
};

class FsUnderTest {
 public:
  // Builds the full stack, formats it, mounts it. `clock` may be null.
  static Result<std::unique_ptr<FsUnderTest>> Create(
      const FsUnderTestConfig& config, SimClock* clock);

  const std::string& name() const { return name_; }
  const FsUnderTestConfig& config() const { return config_; }
  vfs::Vfs& vfs() { return *vfs_; }
  fs::FileSystem& inner() { return *inner_fs_; }

  // Operation brackets: kRemountPerOp mounts before and unmounts after
  // each step; other strategies keep the mount.
  Status BeginOp();
  Status EndOp();
  Status EnsureMounted();

  // Concrete-state capture. RestoreState is non-consuming (see
  // mc::System); keys are caller-chosen. Under kIoctl each key maps to a
  // first-class fs::SnapshotId handle, so a restore neither consumes the
  // snapshot nor re-arms it — the pre-handle API had to re-run
  // ioctl_CHECKPOINT after every ioctl_RESTORE to fake this contract.
  Status SaveState(std::uint64_t key);
  Status RestoreState(std::uint64_t key);
  Status DiscardState(std::uint64_t key);

  // Approximate bytes of one saved state (memory-model accounting).
  std::uint64_t StateBytes() const;

  // Snapshot-pool accounting (kIoctl): count plus total/shared/exclusive
  // bytes of the structurally-shared pool. Zeroes for other strategies.
  fs::SnapshotStats StateStats() const;

  // Supported optional features (intersected across the pair by the
  // engine to build the action set).
  std::vector<fs::FsFeature> SupportedFeatures() const;

  // Special paths this file system creates on its own (lost+found) — fed
  // into the checker's exception list (paper §3.4).
  std::vector<std::string> SpecialPaths() const;

  // Diagnostics.
  std::uint64_t remounts() const { return remounts_; }
  storage::BlockDevice* device() { return device_.get(); }

  // Crash exploration: the recording wrapper (null unless configured
  // with crashable_device), and a factory for recovery probes — a fresh
  // device whose contents are `image` (its blocks shared, not copied),
  // mounted by nothing, carrying the same file-system options (including
  // seeded bugs, so a mutant's broken recovery path is the one
  // exercised). The caller mounts it. jffs2f probes share one replay
  // memo, so each resumes its log replay where it departs from the last
  // probe's flash.
  storage::CrashableDisk* crash_disk() { return crash_disk_; }
  Result<fs::FileSystemPtr> BuildRecoveryProbe(
      storage::BlockImage image) const;
  // jffs2f only (null otherwise): the memo its probes share.
  const fs::Jffs2Fs::ReplayMemo* replay_memo() const {
    return replay_memo_.get();
  }

 private:
  FsUnderTest() = default;

  Status SaveViaDevice(std::uint64_t key);
  Status RestoreViaDevice(std::uint64_t key);
  bool RemountsPerOp() const {
    return config_.strategy == StateStrategy::kRemountPerOp;
  }

  FsUnderTestConfig config_;
  std::string name_;
  SimClock* clock_ = nullptr;

  // Storage (kernel FSes).
  storage::BlockDevicePtr device_;                 // block view (snapshots)
  std::shared_ptr<storage::MtdDevice> mtd_;        // jffs2f only
  storage::CrashableDisk* crash_disk_ = nullptr;   // aliases device_
  // jffs2f: the recovery probes' replay memo. The live file system never
  // sees it (its device charges time). Not thread-safe: one thread
  // builds and mounts this stack's probes, and each swarm worker builds
  // its own stack.
  std::shared_ptr<fs::Jffs2Fs::ReplayMemo> replay_memo_;

  // The file system proper and, for FUSE transport, its plumbing.
  fs::FileSystemPtr hosted_fs_;    // the real implementation
  std::unique_ptr<fuse::FuseChannel> channel_;
  std::unique_ptr<fuse::FuseHost> host_;
  std::shared_ptr<fuse::FuseClientFs> client_;
  fs::FileSystemPtr inner_fs_;     // what the VFS mounts (client_ or hosted)
  fs::CheckpointableFs* checkpointable_ = nullptr;
  // Daemon-side view for byte accounting: the FUSE client cannot see the
  // snapshot pool's size, the hosted file system can.
  fs::CheckpointableFs* accounting_ = nullptr;
  // kVfsApi strategy: the mount-state capture half of the kernel FS.
  fs::MountStateCapture* mount_capture_ = nullptr;

  // Also the kernel notifier of the daemon or of the FUSE/NFS client.
  std::unique_ptr<vfs::Vfs> vfs_;
  std::unique_ptr<snapshot::VmSnapshotter> vm_;
  std::unique_ptr<nfs::GaneshaServer> ganesha_;
  std::unique_ptr<snapshot::CriuSnapshotter> criu_;

  // Device-snapshot strategies: explorer key -> device snapshot. Each
  // shares its blocks with the live device and with the others.
  std::map<std::uint64_t, storage::DeviceSnapshot> device_snapshots_;
  std::map<std::uint64_t, Bytes> mount_snapshots_;  // kVfsApi strategy
  // kIoctl: explorer key -> snapshot handle on the checkpointable FS.
  std::map<std::uint64_t, fs::SnapshotId> ioctl_handles_;
  std::uint64_t remounts_ = 0;
  std::uint64_t last_state_bytes_ = 0;
};

}  // namespace mcfs::core
