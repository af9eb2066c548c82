#include "replay.h"

#include <unordered_map>

#include "config.h"
#include "mcfs/trace.h"
#include "tracer.h"

namespace perfbench {

namespace {

using mcfs::core::FsUnderTest;
using mcfs::core::OpKind;

struct SideNames {
  std::uint32_t op, remount, save, restore, discard;
};

SideNames NamesFor(const FsUnderTest& fut) {
  Tracer& t = Tracer::Get();
  const std::string kind = KindTag(fut.config().kind);
  return {t.Name("fs." + kind + ".op"), t.Name("fs." + kind + ".remount"),
          t.Name("snapshot." + kind + ".save"),
          t.Name("snapshot." + kind + ".restore"),
          t.Name("snapshot." + kind + ".discard")};
}

}  // namespace

ReplayOutcome ReplayHistory(const mcfs::core::McfsConfig& config,
                            const mcfs::core::Trace& history) {
  ReplayOutcome out;
  auto created = mcfs::core::Mcfs::Create(config);
  if (!created.ok()) return out;
  out.setup_ok = true;
  mcfs::core::Mcfs& mcfs = *created.value();
  FsUnderTest& a = mcfs.fs_a();
  FsUnderTest& b = mcfs.fs_b();
  // The engine's options carry the exception lists it derived from both
  // file systems; the replay must hash exactly what the search hashed.
  const mcfs::core::EngineOptions& options = mcfs.engine().options();
  const bool incremental = mcfs.engine().incremental_abstraction();
  mcfs::core::IncrementalAbstraction inc_a, inc_b;

  Tracer& t = Tracer::Get();
  const SideNames na = NamesFor(a);
  const SideNames nb = NamesFor(b);
  const std::uint32_t refresh = t.Name("mcfs.abstraction.refresh");
  const std::uint32_t compare = t.Name("mcfs.checker.compare");

  const auto& records = history.records();
  std::unordered_map<std::uint64_t, std::size_t> last_use;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpKind kind = records[i].op.kind;
    if (kind == OpKind::kCheckpoint || kind == OpKind::kRestore) {
      last_use[records[i].op.offset] = i;
    }
  }

  auto fail = [&out](std::size_t index, const std::string& what) {
    if (out.mismatches++ == 0) {
      out.first_mismatch = "record " + std::to_string(index) + ": " + what;
    }
  };
  auto timed = [](std::uint32_t name, auto&& call) {
    Scope scope(name);
    return call();
  };

  Scope root(t.Name("replay"));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const mcfs::core::Trace::Record& rec = records[i];
    const mcfs::core::Operation& op = rec.op;
    ++out.records;
    if (op.kind == OpKind::kCheckpoint) {
      const std::uint64_t key = op.offset;
      if (!timed(na.save, [&] { return a.SaveState(key); }).ok() ||
          !timed(nb.save, [&] { return b.SaveState(key); }).ok()) {
        fail(i, "save failed");
      }
      if (incremental) {
        Scope scope(refresh);
        inc_a.SaveEpoch(key);
        inc_b.SaveEpoch(key);
      }
    } else if (op.kind == OpKind::kRestore) {
      const std::uint64_t key = op.offset;
      if (incremental) {
        Scope scope(refresh);
        (void)inc_a.RestoreEpoch(key);
        (void)inc_b.RestoreEpoch(key);
      }
      if (!timed(na.restore, [&] { return a.RestoreState(key); }).ok() ||
          !timed(nb.restore, [&] { return b.RestoreState(key); }).ok()) {
        fail(i, "restore failed");
      }
    } else {
      ++out.ops;
      if (!timed(na.remount, [&] { return a.BeginOp(); }).ok() ||
          !timed(nb.remount, [&] { return b.BeginOp(); }).ok()) {
        fail(i, "BeginOp failed");
      }
      const mcfs::core::OpOutcome oa =
          timed(na.op, [&] { return mcfs::core::ExecuteOp(a.vfs(), op); });
      const mcfs::core::OpOutcome ob =
          timed(nb.op, [&] { return mcfs::core::ExecuteOp(b.vfs(), op); });
      const mcfs::core::CheckVerdict verdict = timed(compare, [&] {
        return mcfs::core::CompareOutcomes(op, oa, ob, options.checker);
      });
      if (oa.error != rec.error_a || ob.error != rec.error_b) {
        fail(i, op.ToString() + " errno pair " +
                    std::string(mcfs::ErrnoName(oa.error)) + "/" +
                    std::string(mcfs::ErrnoName(ob.error)) + " != recorded " +
                    std::string(mcfs::ErrnoName(rec.error_a)) + "/" +
                    std::string(mcfs::ErrnoName(rec.error_b)));
      } else if (!verdict.ok) {
        fail(i, verdict.detail);
      }
      {
        Scope scope(refresh);
        mcfs::Result<mcfs::Md5Digest> da = mcfs::Md5Digest{};
        mcfs::Result<mcfs::Md5Digest> db = mcfs::Md5Digest{};
        if (incremental) {
          da = inc_a.Refresh(a.vfs(), options.abstraction,
                             mcfs::core::TouchedPaths(op, oa));
          db = inc_b.Refresh(b.vfs(), options.abstraction,
                             mcfs::core::TouchedPaths(op, ob));
        } else {
          da = mcfs::core::ComputeAbstractState(a.vfs(), options.abstraction);
          db = mcfs::core::ComputeAbstractState(b.vfs(), options.abstraction);
        }
        if (!da.ok() || !db.ok() || da.value() != db.value()) {
          fail(i, op.ToString() + " abstract states differ");
        }
      }
      if (!timed(na.remount, [&] { return a.EndOp(); }).ok() ||
          !timed(nb.remount, [&] { return b.EndOp(); }).ok()) {
        fail(i, "EndOp failed");
      }
    }
    if (op.kind == OpKind::kCheckpoint || op.kind == OpKind::kRestore) {
      const std::uint64_t key = op.offset;
      if (last_use[key] == i) {
        if (incremental) {
          Scope scope(refresh);
          inc_a.DiscardEpoch(key);
          inc_b.DiscardEpoch(key);
        }
        if (!timed(na.discard, [&] { return a.DiscardState(key); }).ok() ||
            !timed(nb.discard, [&] { return b.DiscardState(key); }).ok()) {
          fail(i, "discard failed");
        }
      }
    }
  }
  return out;
}

}  // namespace perfbench
