#include "mcfs/trace.h"

#include <sstream>

namespace mcfs::core {

OpOutcome ExecuteOp(vfs::Vfs& v, const Operation& op) {
  OpOutcome outcome;
  switch (op.kind) {
    case OpKind::kCreateFile: {
      // Meta-op: create and close (paper §4). O_EXCL makes re-creation an
      // observable EEXIST on every file system.
      auto fd = v.Open(op.path, fs::kCreate | fs::kExcl | fs::kWrOnly,
                       op.mode);
      if (!fd.ok()) {
        outcome.error = fd.error();
        break;
      }
      Status s = v.Close(fd.value());
      outcome.error = s.error();
      break;
    }
    case OpKind::kWriteFile: {
      // Meta-op: open, write, close (paper §4).
      auto fd = v.Open(op.path, fs::kWrOnly, 0);
      if (!fd.ok()) {
        outcome.error = fd.error();
        break;
      }
      const Bytes payload(op.size, op.fill);
      auto written = v.Write(fd.value(), op.offset, payload);
      if (!written.ok()) {
        outcome.error = written.error();
        (void)v.Close(fd.value());
        break;
      }
      Status s = v.Close(fd.value());
      outcome.error = s.error();
      break;
    }
    case OpKind::kReadFile: {
      auto fd = v.Open(op.path, fs::kRdOnly, 0);
      if (!fd.ok()) {
        outcome.error = fd.error();
        break;
      }
      auto data = v.Read(fd.value(), op.offset, op.size);
      if (!data.ok()) {
        outcome.error = data.error();
        (void)v.Close(fd.value());
        break;
      }
      outcome.data = data.value();
      Status s = v.Close(fd.value());
      outcome.error = s.error();
      break;
    }
    case OpKind::kTruncate:
      outcome.error = v.Truncate(op.path, op.size).error();
      break;
    case OpKind::kMkdir:
      outcome.error = v.Mkdir(op.path, op.mode).error();
      break;
    case OpKind::kRmdir:
      outcome.error = v.Rmdir(op.path).error();
      break;
    case OpKind::kUnlink:
      outcome.error = v.Unlink(op.path).error();
      break;
    case OpKind::kGetDents: {
      auto entries = v.GetDents(op.path);
      if (!entries.ok()) {
        outcome.error = entries.error();
      } else {
        outcome.dirents = entries.value();
      }
      break;
    }
    case OpKind::kStat: {
      auto attr = v.Stat(op.path);
      if (!attr.ok()) {
        outcome.error = attr.error();
      } else {
        outcome.has_attr = true;
        outcome.attr = attr.value();
      }
      break;
    }
    case OpKind::kRename:
      outcome.error = v.Rename(op.path, op.path2).error();
      break;
    case OpKind::kLink:
      outcome.error = v.Link(op.path, op.path2).error();
      break;
    case OpKind::kSymlink:
      outcome.error = v.Symlink(op.path, op.path2).error();
      break;
    case OpKind::kReadLink: {
      auto target = v.ReadLink(op.path);
      if (!target.ok()) {
        outcome.error = target.error();
      } else {
        outcome.link_target = target.value();
      }
      break;
    }
    case OpKind::kChmod:
      outcome.error = v.Chmod(op.path, op.mode).error();
      break;
    case OpKind::kAccess:
      outcome.error = v.Access(op.path, op.mode).error();
      break;
    case OpKind::kSetXattr: {
      // Value derives from the name so the operation is deterministic.
      const std::string value = "value-of-" + op.xattr_name;
      outcome.error = v.SetXattr(op.path, op.xattr_name,
                                 AsBytes(value)).error();
      break;
    }
    case OpKind::kRemoveXattr:
      outcome.error = v.RemoveXattr(op.path, op.xattr_name).error();
      break;
    case OpKind::kFsync: {
      // Meta-op: open, fsync, close — the durability barrier the crash
      // oracle keys its sync points on.
      auto fd = v.Open(op.path, fs::kRdOnly, 0);
      if (!fd.ok()) {
        outcome.error = fd.error();
        break;
      }
      Status s = v.Fsync(fd.value());
      if (!s.ok()) {
        outcome.error = s.error();
        (void)v.Close(fd.value());
        break;
      }
      outcome.error = v.Close(fd.value()).error();
      break;
    }
    case OpKind::kCheckpoint:
    case OpKind::kRestore:
      // Snapshot records are the engine's SaveConcrete/RestoreConcrete,
      // not calls against a single VFS.
      break;
  }
  return outcome;
}

void Trace::Append(const Operation& op, const OpOutcome& a,
                   const OpOutcome& b, bool violation) {
  records_.push_back(Record{op, a.error, b.error, violation});
}

std::string Trace::ToText() const {
  std::ostringstream out;
  std::size_t index = 0;
  for (const auto& record : records_) {
    out << index++ << ": " << record.op.ToString() << " -> A:"
        << ErrnoName(record.error_a) << " B:" << ErrnoName(record.error_b);
    if (record.violation) out << "  [VIOLATION]";
    out << "\n";
  }
  return out.str();
}

Bytes Trace::Serialize() const {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(records_.size()));
  for (const auto& record : records_) {
    w.PutU8(static_cast<std::uint8_t>(record.op.kind));
    w.PutString(record.op.path);
    w.PutString(record.op.path2);
    w.PutU64(record.op.offset);
    w.PutU64(record.op.size);
    w.PutU8(record.op.fill);
    w.PutU16(record.op.mode);
    w.PutString(record.op.xattr_name);
    w.PutU32(static_cast<std::uint32_t>(record.error_a));
    w.PutU32(static_cast<std::uint32_t>(record.error_b));
    w.PutU8(record.violation ? 1 : 0);
  }
  return w.Take();
}

Result<Trace> Trace::Deserialize(ByteView image) {
  // Fixed-width bytes per record (the three strings add 4 bytes of length
  // prefix each on top). Used to reject absurd record counts before any
  // allocation happens.
  constexpr std::size_t kMinRecordBytes =
      1 + 4 + 4 + 8 + 8 + 1 + 2 + 4 + 4 + 4 + 1;
  try {
    ByteReader r(image);
    Trace trace;
    const std::uint32_t count = r.GetU32();
    if (count > r.remaining() / kMinRecordBytes) return Errno::kEINVAL;
    trace.records_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      Record record;
      const std::uint8_t kind = r.GetU8();
      if (kind > static_cast<std::uint8_t>(OpKind::kRestore)) {
        return Errno::kEINVAL;
      }
      record.op.kind = static_cast<OpKind>(kind);
      record.op.path = r.GetString();
      record.op.path2 = r.GetString();
      record.op.offset = r.GetU64();
      record.op.size = r.GetU64();
      record.op.fill = r.GetU8();
      record.op.mode = r.GetU16();
      record.op.xattr_name = r.GetString();
      record.error_a = static_cast<Errno>(r.GetU32());
      record.error_b = static_cast<Errno>(r.GetU32());
      // The Errno enum is closed; anything ErrnoName can't print never
      // came from Serialize.
      if (ErrnoName(record.error_a) == "E???" ||
          ErrnoName(record.error_b) == "E???") {
        return Errno::kEINVAL;
      }
      const std::uint8_t violation = r.GetU8();
      if (violation > 1) return Errno::kEINVAL;
      record.violation = violation != 0;
      trace.records_.push_back(std::move(record));
    }
    // Trailing garbage means the image was not produced by Serialize;
    // poison it rather than silently accept a prefix.
    if (!r.AtEnd()) return Errno::kEINVAL;
    return trace;
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
}

void Trace::TrimToLast(std::size_t n) {
  if (records_.size() > n) {
    records_.erase(records_.begin(),
                   records_.end() - static_cast<std::ptrdiff_t>(n));
  }
}

void Trace::TrimToFirst(std::size_t n) {
  if (records_.size() > n) {
    records_.resize(n);
  }
}

}  // namespace mcfs::core
