#include "nfs/ganesha.h"

namespace mcfs::nfs {

GaneshaServer::GaneshaServer(fs::FileSystemPtr exported, SimClock* clock)
    : exported_(std::move(exported)),
      channel_(clock, kNfsCrossingCost, /*copy_cost_per_kb=*/600,
               /*char_device=*/false, "tcp:0.0.0.0:2049"),
      host_(std::make_unique<fuse::FuseHost>(exported_, &channel_)),
      client_(std::make_shared<fuse::FuseClientFs>(&channel_)),
      process_(this),
      daemon_(dynamic_cast<fs::DaemonImage*>(exported_.get())) {
  // Restore-time cache invalidations flow like the FUSE deployment's.
  if (daemon_ != nullptr) daemon_->SetNotifier(host_.get());
}

Bytes GaneshaServer::Process::CaptureMemory() const {
  fs::DaemonImage* daemon = server_->daemon_;
  return daemon != nullptr ? daemon->ExportState() : Bytes{};
}

Status GaneshaServer::Process::RestoreMemory(ByteView image) {
  fs::DaemonImage* daemon = server_->daemon_;
  if (daemon == nullptr) return Errno::kENOTSUP;
  daemon->ImportState(image);
  return Status::Ok();
}

}  // namespace mcfs::nfs
