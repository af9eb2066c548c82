#include "fuse/fuse_kernel.h"

#include <utility>

#include "fuse/fuse_proto.h"
#include "fuse/fuse_wire.h"

namespace mcfs::fuse {

namespace {

ByteWriter Request(Opcode op) {
  ByteWriter w;
  w.PutU8(static_cast<std::uint8_t>(op));
  return w;
}

// Decodes the leading status word; returns a reader positioned at the
// payload on success.
Result<ByteReader> DecodeReply(const Bytes& reply) {
  ByteReader r(reply);
  const auto err = static_cast<Errno>(r.GetU32());
  if (err != Errno::kOk) return err;
  return r;
}

}  // namespace

FuseClientFs::FuseClientFs(FuseChannel* channel) : channel_(channel) {
  channel_->SetNotifyHandler([this](ByteView notification) {
    ByteReader r(notification);
    const auto code = static_cast<NotifyCode>(r.GetU8());
    if (code == NotifyCode::kInvalEntry) {
      const std::string parent = r.GetString();
      const std::string name = r.GetString();
      if (notifier_ != nullptr) notifier_->InvalEntry(parent, name);
    } else if (code == NotifyCode::kInvalInode) {
      const fs::InodeNum ino = r.GetU64();
      if (notifier_ != nullptr) notifier_->InvalInode(ino);
    }
  });
}

Result<Bytes> FuseClientFs::Call(ByteView request) const {
  return channel_->Transact(request);
}

Status FuseClientFs::SimpleCall(ByteView request) const {
  auto reply = Call(request);
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  return r.ok() ? Status::Ok() : Status(r.error());
}

Status FuseClientFs::Mkfs() {
  return SimpleCall(Request(Opcode::kMkfs).bytes());
}

Status FuseClientFs::Mount() {
  if (mounted_) return Errno::kEBUSY;
  if (Status s = SimpleCall(Request(Opcode::kInit).bytes()); !s.ok()) {
    return s;
  }
  mounted_ = true;
  return Status::Ok();
}

Status FuseClientFs::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  if (Status s = SimpleCall(Request(Opcode::kDestroy).bytes()); !s.ok()) {
    return s;
  }
  mounted_ = false;
  return Status::Ok();
}

Result<fs::InodeAttr> FuseClientFs::GetAttr(const std::string& path) {
  ByteWriter w = Request(Opcode::kGetAttr);
  w.PutString(path);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return ReadAttr(r.value());
}

Status FuseClientFs::Mkdir(const std::string& path, fs::Mode mode) {
  ByteWriter w = Request(Opcode::kMkdir);
  w.PutString(path);
  w.PutU16(mode);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Rmdir(const std::string& path) {
  ByteWriter w = Request(Opcode::kRmdir);
  w.PutString(path);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Unlink(const std::string& path) {
  ByteWriter w = Request(Opcode::kUnlink);
  w.PutString(path);
  return SimpleCall(w.bytes());
}

Result<std::vector<fs::DirEntry>> FuseClientFs::ReadDir(
    const std::string& path) {
  ByteWriter w = Request(Opcode::kReadDir);
  w.PutString(path);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  const std::uint32_t count = r.value().GetU32();
  std::vector<fs::DirEntry> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    fs::DirEntry e;
    e.name = r.value().GetString();
    e.ino = r.value().GetU64();
    e.type = static_cast<fs::FileType>(r.value().GetU8());
    out.push_back(std::move(e));
  }
  return out;
}

Result<fs::FileHandle> FuseClientFs::Open(const std::string& path,
                                          std::uint32_t flags,
                                          fs::Mode mode) {
  ByteWriter w = Request(Opcode::kOpen);
  w.PutString(path);
  w.PutU32(flags);
  w.PutU16(mode);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return r.value().GetU64();
}

Status FuseClientFs::Close(fs::FileHandle fh) {
  ByteWriter w = Request(Opcode::kClose);
  w.PutU64(fh);
  return SimpleCall(w.bytes());
}

Result<Bytes> FuseClientFs::Read(fs::FileHandle fh, std::uint64_t offset,
                                 std::uint64_t size) {
  ByteWriter w = Request(Opcode::kRead);
  w.PutU64(fh);
  w.PutU64(offset);
  w.PutU64(size);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return r.value().GetBlob();
}

Result<std::uint64_t> FuseClientFs::Write(fs::FileHandle fh,
                                          std::uint64_t offset,
                                          ByteView data) {
  ByteWriter w = Request(Opcode::kWrite);
  w.PutU64(fh);
  w.PutU64(offset);
  w.PutBlob(data);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return r.value().GetU64();
}

Status FuseClientFs::Truncate(const std::string& path, std::uint64_t size) {
  ByteWriter w = Request(Opcode::kTruncate);
  w.PutString(path);
  w.PutU64(size);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Fsync(fs::FileHandle fh) {
  ByteWriter w = Request(Opcode::kFsync);
  w.PutU64(fh);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Chmod(const std::string& path, fs::Mode mode) {
  ByteWriter w = Request(Opcode::kChmod);
  w.PutString(path);
  w.PutU16(mode);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Chown(const std::string& path, std::uint32_t uid,
                           std::uint32_t gid) {
  ByteWriter w = Request(Opcode::kChown);
  w.PutString(path);
  w.PutU32(uid);
  w.PutU32(gid);
  return SimpleCall(w.bytes());
}

Result<fs::StatVfs> FuseClientFs::StatFs() {
  auto reply = Call(Request(Opcode::kStatFs).bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return ReadStatVfs(r.value());
}

bool FuseClientFs::Supports(fs::FsFeature feature) const {
  ByteWriter w = Request(Opcode::kSupports);
  w.PutU8(static_cast<std::uint8_t>(feature));
  auto reply = Call(w.bytes());
  if (!reply.ok()) return false;
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return false;
  return r.value().GetU8() != 0;
}

Status FuseClientFs::Rename(const std::string& from, const std::string& to) {
  ByteWriter w = Request(Opcode::kRename);
  w.PutString(from);
  w.PutString(to);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Link(const std::string& existing,
                          const std::string& link) {
  ByteWriter w = Request(Opcode::kLink);
  w.PutString(existing);
  w.PutString(link);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Symlink(const std::string& target,
                             const std::string& link) {
  ByteWriter w = Request(Opcode::kSymlink);
  w.PutString(target);
  w.PutString(link);
  return SimpleCall(w.bytes());
}

Result<std::string> FuseClientFs::ReadLink(const std::string& path) {
  ByteWriter w = Request(Opcode::kReadLink);
  w.PutString(path);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return r.value().GetString();
}

Status FuseClientFs::Access(const std::string& path, std::uint32_t mode) {
  ByteWriter w = Request(Opcode::kAccess);
  w.PutString(path);
  w.PutU32(mode);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::SetXattr(const std::string& path,
                              const std::string& name, ByteView value) {
  ByteWriter w = Request(Opcode::kSetXattr);
  w.PutString(path);
  w.PutString(name);
  w.PutBlob(value);
  return SimpleCall(w.bytes());
}

Result<Bytes> FuseClientFs::GetXattr(const std::string& path,
                                     const std::string& name) {
  ByteWriter w = Request(Opcode::kGetXattr);
  w.PutString(path);
  w.PutString(name);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return r.value().GetBlob();
}

Result<std::vector<std::string>> FuseClientFs::ListXattr(
    const std::string& path) {
  ByteWriter w = Request(Opcode::kListXattr);
  w.PutString(path);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  const std::uint32_t count = r.value().GetU32();
  std::vector<std::string> names;
  names.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    names.push_back(r.value().GetString());
  }
  return names;
}

Status FuseClientFs::RemoveXattr(const std::string& path,
                                 const std::string& name) {
  ByteWriter w = Request(Opcode::kRemoveXattr);
  w.PutString(path);
  w.PutString(name);
  return SimpleCall(w.bytes());
}

Result<fs::SnapshotId> FuseClientFs::Checkpoint() {
  ByteWriter w = Request(Opcode::kCheckpointHandle);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return reply.error();
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return r.error();
  return static_cast<fs::SnapshotId>(r.value().GetU64());
}

Status FuseClientFs::Restore(fs::SnapshotId id) {
  ByteWriter w = Request(Opcode::kRestoreHandle);
  w.PutU64(id);
  return SimpleCall(w.bytes());
}

Status FuseClientFs::Discard(fs::SnapshotId id) {
  ByteWriter w = Request(Opcode::kDiscardHandle);
  w.PutU64(id);
  return SimpleCall(w.bytes());
}

fs::SnapshotStats FuseClientFs::Stats() const {
  ByteWriter w = Request(Opcode::kSnapshotStats);
  auto reply = Call(w.bytes());
  if (!reply.ok()) return {};
  auto r = DecodeReply(reply.value());
  if (!r.ok()) return {};
  fs::SnapshotStats stats;
  stats.count = r.value().GetU64();
  stats.total_bytes = r.value().GetU64();
  stats.shared_bytes = r.value().GetU64();
  stats.exclusive_bytes = r.value().GetU64();
  return stats;
}

}  // namespace mcfs::fuse
