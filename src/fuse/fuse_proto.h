// The wire protocol spoken over the simulated /dev/fuse channel.
//
// Every FileSystem operation has an opcode; requests and replies are
// length-prefixed byte buffers built with ByteWriter/ByteReader. The
// point of modelling this at all (rather than calling the user-space FS
// directly) is fidelity to the paper's Figure 1: FUSE file systems live
// in a separate process, syscalls cross the kernel boundary as messages,
// and the kernel keeps its own caches that the user FS must explicitly
// invalidate.
#pragma once

#include <cstdint>

namespace mcfs::fuse {

enum class Opcode : std::uint8_t {
  kInit = 1,     // mount handshake
  kDestroy = 2,  // unmount
  kGetAttr = 3,
  kMkdir = 4,
  kRmdir = 5,
  kUnlink = 6,
  kReadDir = 7,
  kOpen = 8,
  kClose = 9,
  kRead = 10,
  kWrite = 11,
  kTruncate = 12,
  kFsync = 13,
  kChmod = 14,
  kChown = 15,
  kStatFs = 16,
  kRename = 17,
  kLink = 18,
  kSymlink = 19,
  kReadLink = 20,
  kAccess = 21,
  kSetXattr = 22,
  kGetXattr = 23,
  kListXattr = 24,
  kRemoveXattr = 25,
  kSupports = 26,
  // The paper's proposed checkpoint/restore API (§5), carried as ioctls
  // in handle form: checkpoint returns a daemon-allocated
  // fs::SnapshotId, restore/discard take one, stats reports the pool's
  // shared/exclusive byte accounting. 40-42, the paper's keyed
  // (consuming-restore) form, are retired and answer kEINVAL.
  kCheckpointHandle = 43,
  kRestoreHandle = 44,
  kDiscardHandle = 45,
  kSnapshotStats = 46,
  kMkfs = 50,
};

// Reverse (host -> kernel) notifications, mirroring
// fuse_lowlevel_notify_inval_entry / fuse_lowlevel_notify_inval_inode.
enum class NotifyCode : std::uint8_t {
  kInvalEntry = 1,
  kInvalInode = 2,
};

}  // namespace mcfs::fuse
