// A user-space NFS server in the NFS-Ganesha mold (paper §5):
// "However, CRIU was able to snapshot the user-space NFS server Ganesha;
// we are investigating model-checking Ganesha with CRIU."
//
// Structure mirrors the FUSE deployment — a daemon process hosting a
// file system behind a message channel — with the one difference that
// decides everything for CRIU: the channel is a TCP socket, not a
// character device, so the daemon holds no device handles and CAN be
// checkpointed. The file-system state lives entirely in the daemon's
// memory (a VeriFS-class RAM file system), so a CRIU image of the
// process is a complete state capture.
//
// FsUnderTest exposes this as transport `kNfs` + StateStrategy::kCriu.
#pragma once

#include <memory>

#include "fs/checkpointable.h"
#include "fs/filesystem.h"
#include "fuse/fuse_channel.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "snapshot/criu.h"

namespace mcfs::nfs {

// Wire latency of one NFS RPC crossing over loopback TCP (~3x a FUSE
// crossing: socket stack + RPC encode).
constexpr SimClock::Nanos kNfsCrossingCost = 30'000;

class GaneshaServer {
 public:
  // `exported` must be a fs::DaemonImage, such as VeriFS (its full state
  // lives in process memory, which is what the CRIU image captures).
  GaneshaServer(fs::FileSystemPtr exported, SimClock* clock);

  // The NFS-client view of the export: mount it in a Vfs like any FS.
  const std::shared_ptr<fuse::FuseClientFs>& client() const {
    return client_;
  }

  fs::FileSystem& exported() { return *exported_; }
  fuse::FuseChannel& channel() { return channel_; }

  // The process CRIU inspects: no device handles, memory = FS state.
  snapshot::ProcessDescriptor& process() { return process_; }

 private:
  class Process final : public snapshot::ProcessDescriptor {
   public:
    explicit Process(GaneshaServer* server) : server_(server) {}

    std::string name() const override { return "nfs-ganesha"; }
    std::vector<std::string> open_device_paths() const override {
      return {};  // sockets only — the property CRIU needs
    }
    Bytes CaptureMemory() const override;
    Status RestoreMemory(ByteView image) override;

   private:
    GaneshaServer* server_;
  };

  fs::FileSystemPtr exported_;
  fuse::FuseChannel channel_;
  std::unique_ptr<fuse::FuseHost> host_;
  std::shared_ptr<fuse::FuseClientFs> client_;
  Process process_;
  fs::DaemonImage* daemon_;  // the exported FS's memory image, or null
};

}  // namespace mcfs::nfs
