#include "fuse/fuse_host.h"

#include <utility>

#include "fuse/fuse_proto.h"
#include "fuse/fuse_wire.h"

namespace mcfs::fuse {

FuseHost::FuseHost(fs::FileSystemPtr hosted, FuseChannel* channel)
    : hosted_(std::move(hosted)),
      checkpointable_(dynamic_cast<fs::CheckpointableFs*>(hosted_.get())),
      channel_(channel) {
  channel_->SetRequestHandler(
      [this](ByteView request) { return Handle(request); });
}

void FuseHost::InvalEntry(const std::string& parent_path,
                          const std::string& name) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(NotifyCode::kInvalEntry));
  w.PutString(parent_path);
  w.PutString(name);
  channel_->Notify(w.bytes());
}

void FuseHost::InvalInode(fs::InodeNum ino) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(NotifyCode::kInvalInode));
  w.PutU64(ino);
  channel_->Notify(w.bytes());
}

std::uint64_t FuseHost::EstimateResidentBytes() const {
  std::uint64_t bytes = 1 << 20;  // daemon text/heap baseline
  if (checkpointable_ != nullptr) bytes += checkpointable_->SnapshotBytes();
  return bytes;
}

Bytes FuseHost::ErrorReply(Errno err) {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(err));
  return w.Take();
}

ByteWriter FuseHost::OkReply() {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(Errno::kOk));
  return w;
}

Bytes FuseHost::Handle(ByteView request) {
  ByteReader r(request);
  const auto op = static_cast<Opcode>(r.GetU8());
  switch (op) {
    case Opcode::kInit: {
      Status s = hosted_->Mount();
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kDestroy: {
      Status s = hosted_->Unmount();
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kMkfs: {
      Status s = hosted_->Mkfs();
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kGetAttr: {
      auto attr = hosted_->GetAttr(r.GetString());
      if (!attr.ok()) return ErrorReply(attr.error());
      ByteWriter w = OkReply();
      WriteAttr(w, attr.value());
      return w.Take();
    }
    case Opcode::kMkdir: {
      const std::string path = r.GetString();
      const auto mode = static_cast<fs::Mode>(r.GetU16());
      Status s = hosted_->Mkdir(path, mode);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kRmdir: {
      Status s = hosted_->Rmdir(r.GetString());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kUnlink: {
      Status s = hosted_->Unlink(r.GetString());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kReadDir: {
      auto entries = hosted_->ReadDir(r.GetString());
      if (!entries.ok()) return ErrorReply(entries.error());
      ByteWriter w = OkReply();
      w.PutU32(static_cast<std::uint32_t>(entries.value().size()));
      for (const auto& e : entries.value()) {
        w.PutString(e.name);
        w.PutU64(e.ino);
        w.PutU8(static_cast<std::uint8_t>(e.type));
      }
      return w.Take();
    }
    case Opcode::kOpen: {
      const std::string path = r.GetString();
      const std::uint32_t flags = r.GetU32();
      const auto mode = static_cast<fs::Mode>(r.GetU16());
      auto handle = hosted_->Open(path, flags, mode);
      if (!handle.ok()) return ErrorReply(handle.error());
      ByteWriter w = OkReply();
      w.PutU64(handle.value());
      return w.Take();
    }
    case Opcode::kClose: {
      Status s = hosted_->Close(r.GetU64());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kRead: {
      const fs::FileHandle fh = r.GetU64();
      const std::uint64_t offset = r.GetU64();
      const std::uint64_t size = r.GetU64();
      auto data = hosted_->Read(fh, offset, size);
      if (!data.ok()) return ErrorReply(data.error());
      ByteWriter w = OkReply();
      w.PutBlob(data.value());
      return w.Take();
    }
    case Opcode::kWrite: {
      const fs::FileHandle fh = r.GetU64();
      const std::uint64_t offset = r.GetU64();
      const Bytes data = r.GetBlob();
      auto written = hosted_->Write(fh, offset, data);
      if (!written.ok()) return ErrorReply(written.error());
      ByteWriter w = OkReply();
      w.PutU64(written.value());
      return w.Take();
    }
    case Opcode::kTruncate: {
      const std::string path = r.GetString();
      const std::uint64_t size = r.GetU64();
      Status s = hosted_->Truncate(path, size);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kFsync: {
      Status s = hosted_->Fsync(r.GetU64());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kChmod: {
      const std::string path = r.GetString();
      const auto mode = static_cast<fs::Mode>(r.GetU16());
      Status s = hosted_->Chmod(path, mode);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kChown: {
      const std::string path = r.GetString();
      const std::uint32_t uid = r.GetU32();
      const std::uint32_t gid = r.GetU32();
      Status s = hosted_->Chown(path, uid, gid);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kStatFs: {
      auto sv = hosted_->StatFs();
      if (!sv.ok()) return ErrorReply(sv.error());
      ByteWriter w = OkReply();
      WriteStatVfs(w, sv.value());
      return w.Take();
    }
    case Opcode::kRename: {
      const std::string from = r.GetString();
      const std::string to = r.GetString();
      Status s = hosted_->Rename(from, to);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kLink: {
      const std::string existing = r.GetString();
      const std::string link = r.GetString();
      Status s = hosted_->Link(existing, link);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kSymlink: {
      const std::string target = r.GetString();
      const std::string link = r.GetString();
      Status s = hosted_->Symlink(target, link);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kReadLink: {
      auto target = hosted_->ReadLink(r.GetString());
      if (!target.ok()) return ErrorReply(target.error());
      ByteWriter w = OkReply();
      w.PutString(target.value());
      return w.Take();
    }
    case Opcode::kAccess: {
      const std::string path = r.GetString();
      const std::uint32_t mode = r.GetU32();
      Status s = hosted_->Access(path, mode);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kSetXattr: {
      const std::string path = r.GetString();
      const std::string name = r.GetString();
      const Bytes value = r.GetBlob();
      Status s = hosted_->SetXattr(path, name, value);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kGetXattr: {
      const std::string path = r.GetString();
      const std::string name = r.GetString();
      auto value = hosted_->GetXattr(path, name);
      if (!value.ok()) return ErrorReply(value.error());
      ByteWriter w = OkReply();
      w.PutBlob(value.value());
      return w.Take();
    }
    case Opcode::kListXattr: {
      auto names = hosted_->ListXattr(r.GetString());
      if (!names.ok()) return ErrorReply(names.error());
      ByteWriter w = OkReply();
      w.PutU32(static_cast<std::uint32_t>(names.value().size()));
      for (const auto& name : names.value()) w.PutString(name);
      return w.Take();
    }
    case Opcode::kRemoveXattr: {
      const std::string path = r.GetString();
      const std::string name = r.GetString();
      Status s = hosted_->RemoveXattr(path, name);
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kSupports: {
      const auto feature = static_cast<fs::FsFeature>(r.GetU8());
      ByteWriter w = OkReply();
      w.PutU8(hosted_->Supports(feature) ? 1 : 0);
      return w.Take();
    }
    case Opcode::kCheckpointHandle: {
      if (checkpointable_ == nullptr) return ErrorReply(Errno::kENOTSUP);
      auto id = checkpointable_->Checkpoint();
      if (!id.ok()) return ErrorReply(id.error());
      ByteWriter w = OkReply();
      w.PutU64(id.value());
      return w.Take();
    }
    case Opcode::kRestoreHandle: {
      if (checkpointable_ == nullptr) return ErrorReply(Errno::kENOTSUP);
      Status s = checkpointable_->Restore(r.GetU64());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kDiscardHandle: {
      if (checkpointable_ == nullptr) return ErrorReply(Errno::kENOTSUP);
      Status s = checkpointable_->Discard(r.GetU64());
      return s.ok() ? OkReply().Take() : ErrorReply(s.error());
    }
    case Opcode::kSnapshotStats: {
      if (checkpointable_ == nullptr) return ErrorReply(Errno::kENOTSUP);
      const fs::SnapshotStats stats = checkpointable_->Stats();
      ByteWriter w = OkReply();
      w.PutU64(stats.count);
      w.PutU64(stats.total_bytes);
      w.PutU64(stats.shared_bytes);
      w.PutU64(stats.exclusive_bytes);
      return w.Take();
    }
  }
  return ErrorReply(Errno::kEINVAL);
}

}  // namespace mcfs::fuse
