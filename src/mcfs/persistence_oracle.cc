#include "mcfs/persistence_oracle.h"

#include <algorithm>
#include <utility>

#include "util/md5.h"

namespace mcfs::core {
namespace {

using PathVersion = PersistenceOracle::PathVersion;

bool SameVersion(const PathVersion& a, const PathVersion& b) {
  if (a.exists != b.exists) return false;
  if (!a.exists) return true;
  if (a.type != b.type || a.mode != b.mode || a.uid != b.uid ||
      a.gid != b.gid) {
    return false;
  }
  // Directory sizes are representation noise (entry-count vs
  // block-rounded, paper §3.4) and directory content is covered by the
  // children's own paths plus the phantom check.
  if (a.type == fs::FileType::kDirectory) return true;
  return a.size == b.size && a.payload == b.payload;
}

std::string JoinPath(const std::string& parent, const std::string& name) {
  if (parent == "/") return "/" + name;
  return parent + "/" + name;
}

}  // namespace

PersistenceOracle::PersistenceOracle(PersistenceOracleOptions options)
    : options_(std::move(options)) {}

bool PersistenceOracle::Exempt(const std::string& path) const {
  return std::find(options_.exempt_paths.begin(), options_.exempt_paths.end(),
                   path) != options_.exempt_paths.end();
}

Status PersistenceOracle::CaptureTree(fs::FileSystem& fs,
                                      std::map<std::string, PathVersion>& out) {
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    const std::string path = std::move(stack.back());
    stack.pop_back();
    if (Exempt(path)) continue;  // exempt subtrees are invisible

    auto attr = fs.GetAttr(path);
    if (!attr.ok()) return attr.error();
    PathVersion v;
    v.exists = true;
    v.type = attr.value().type;
    v.mode = attr.value().mode;
    v.uid = attr.value().uid;
    v.gid = attr.value().gid;
    v.size = attr.value().size;

    if (v.type == fs::FileType::kRegular) {
      auto fh = fs.Open(path, fs::kRdOnly, 0);
      if (!fh.ok()) return fh.error();
      auto data = fs.Read(fh.value(), 0, attr.value().size);
      (void)fs.Close(fh.value());
      if (!data.ok()) return data.error();
      // A recovered file whose readable bytes disagree with its stat
      // size is torn; fold both into the version so it matches nothing.
      v.size = data.value().size();
      v.payload =
          Md5::Hash(ByteView(data.value().data(), data.value().size()))
              .lo64();
    } else if (v.type == fs::FileType::kSymlink) {
      auto target = fs.ReadLink(path);
      if (!target.ok()) return target.error();
      v.payload = Md5::Hash(std::string_view(target.value())).lo64();
      v.size = target.value().size();
    } else {
      v.size = 0;  // directory sizes are not compared
      auto entries = fs.ReadDir(path);
      if (!entries.ok()) return entries.error();
      for (const fs::DirEntry& e : entries.value()) {
        stack.push_back(JoinPath(path, e.name));
      }
    }
    out[path] = v;
  }
  return Status::Ok();
}

Status PersistenceOracle::SeedFromTree(fs::FileSystem& live) {
  state_ = State{};
  std::map<std::string, PathVersion> now;
  if (Status s = CaptureTree(live, now); !s.ok()) return s;
  for (auto& [path, v] : now) {
    History hist;
    hist.versions.push_back(v);
    hist.durable_floor = 0;
    hist.has_durable = true;
    state_.paths[path] = std::move(hist);
  }
  return Status::Ok();
}

Status PersistenceOracle::RecaptureAndDiff(fs::FileSystem& live) {
  std::map<std::string, PathVersion> now;
  if (Status s = CaptureTree(live, now); !s.ok()) return s;
  for (auto& [path, v] : now) {
    History& hist = state_.paths[path];
    if (hist.versions.empty() || !SameVersion(hist.versions.back(), v)) {
      hist.versions.push_back(v);
    }
  }
  for (auto& [path, hist] : state_.paths) {
    if (hist.versions.empty()) continue;
    if (hist.versions.back().exists && !now.contains(path)) {
      hist.versions.push_back(PathVersion{});  // exists = false
    }
  }
  return Status::Ok();
}

void PersistenceOracle::MarkAllDurable() {
  for (auto& [path, hist] : state_.paths) {
    if (hist.versions.empty()) continue;
    hist.durable_floor = hist.versions.size() - 1;
    hist.has_durable = true;
  }
  state_.renames.clear();
}

Status PersistenceOracle::ObserveOp(fs::FileSystem& live, const Operation& op,
                                    const OpOutcome& outcome) {
  if (op.kind == OpKind::kCheckpoint || op.kind == OpKind::kRestore) {
    return Status::Ok();
  }
  if (op.kind == OpKind::kFsync) {
    // Both kernel families implement fsync as a whole-device barrier
    // (ext2f/ext4f flush the global cache, jffs2f drains the flash), so
    // one successful fsync promotes the entire tree.
    if (outcome.error == Errno::kOk) MarkAllDurable();
    return Status::Ok();
  }
  const TouchedPathSet touched = TouchedPaths(op, outcome);
  if (touched.dirty.empty() && touched.evicted_subtrees.empty() &&
      !touched.relabel && !touched.full) {
    return Status::Ok();  // read-only op: nothing can have changed
  }
  if (op.kind == OpKind::kRename && outcome.error == Errno::kOk &&
      !Exempt(op.path) && !Exempt(op.path2)) {
    RenameEvent ev;
    ev.from = op.path;
    ev.to = op.path2;
    auto fit = state_.paths.find(op.path);
    if (fit != state_.paths.end() && !fit->second.versions.empty()) {
      ev.from_before = fit->second.versions.back();
      ev.from_was_durable =
          fit->second.has_durable &&
          fit->second.versions[fit->second.durable_floor].exists;
      ev.from_versions = fit->second.versions.size();
    }
    auto tit = state_.paths.find(op.path2);
    ev.to_existed = tit != state_.paths.end() &&
                    !tit->second.versions.empty() &&
                    tit->second.versions.back().exists;
    ev.to_versions =
        tit == state_.paths.end() ? 0 : tit->second.versions.size();
    if (ev.from_before.exists) state_.renames.push_back(std::move(ev));
  }
  return RecaptureAndDiff(live);
}

std::string PersistenceOracle::ValidateRecovered(fs::FileSystem& recovered) {
  std::map<std::string, PathVersion> rec;
  if (Status s = CaptureTree(recovered, rec); !s.ok()) {
    return "recovered tree walk failed: " +
           std::string(ErrnoName(s.error()));
  }

  for (const auto& [path, hist] : state_.paths) {
    if (hist.versions.empty()) continue;
    const std::size_t lo = hist.has_durable ? hist.durable_floor : 0;
    auto it = rec.find(path);
    if (it == rec.end()) {
      // Absent: legal when the path has no durable incarnation (its
      // whole life is un-synced and may vanish atomically) or some
      // version at/after the sync point was already absent.
      bool legal = !hist.has_durable;
      for (std::size_t i = lo; !legal && i < hist.versions.size(); ++i) {
        if (!hist.versions[i].exists) legal = true;
      }
      if (!legal) {
        return "durable path " + path + " missing after recovery";
      }
      continue;
    }
    // Present: must match one of the states the path passed through
    // since the sync point — anything else is a half-applied update.
    const PathVersion& got = it->second;
    bool legal = false;
    for (std::size_t i = lo; !legal && i < hist.versions.size(); ++i) {
      const PathVersion& v = hist.versions[i];
      legal = v.exists && SameVersion(v, got);
    }
    if (!legal) {
      return "path " + path +
             " recovered in a state matching no observed version "
             "(torn update)";
    }
  }

  for (const auto& [path, got] : rec) {
    if (path == "/") continue;
    auto it = state_.paths.find(path);
    if (it == state_.paths.end() || it->second.versions.empty()) {
      return "phantom path " + path + " appeared after recovery";
    }
  }

  // Rename atomicity: for a rename into a fresh name with no later ops
  // on either side, the file must be at exactly one of the two names.
  for (const RenameEvent& ev : state_.renames) {
    if (ev.to_existed) continue;
    auto fit = state_.paths.find(ev.from);
    auto tit = state_.paths.find(ev.to);
    const bool from_quiet = fit == state_.paths.end() ||
                            fit->second.versions.size() <= ev.from_versions + 1;
    const bool to_quiet = tit == state_.paths.end() ||
                          tit->second.versions.size() <= ev.to_versions + 1;
    if (!from_quiet || !to_quiet) continue;
    auto rf = rec.find(ev.from);
    auto rt = rec.find(ev.to);
    const bool at_from =
        rf != rec.end() && SameVersion(rf->second, ev.from_before);
    const bool at_to =
        rt != rec.end() && SameVersion(rt->second, ev.from_before);
    if (at_from && at_to) {
      return "rename " + ev.from + " -> " + ev.to +
             " recovered half-applied: both names present";
    }
    if (ev.from_was_durable && rf == rec.end() && rt == rec.end()) {
      return "rename " + ev.from + " -> " + ev.to +
             " lost a durable file: neither name present";
    }
  }
  return {};
}

void PersistenceOracle::Save(std::uint64_t key) { snapshots_[key] = state_; }

Status PersistenceOracle::Restore(std::uint64_t key) {
  auto it = snapshots_.find(key);
  if (it == snapshots_.end()) return Errno::kENOENT;
  state_ = it->second;  // non-consuming, like mc::System restores
  return Status::Ok();
}

void PersistenceOracle::Discard(std::uint64_t key) { snapshots_.erase(key); }

// ---------------------------------------------------------------------------
// CrashConsistencyChecker

CrashConsistencyChecker::CrashConsistencyChecker(FsUnderTest* fut,
                                                 CrashCheckOptions options)
    : fut_(fut), options_(std::move(options)), oracle_(options_.oracle) {}

Status CrashConsistencyChecker::SeedInitial() {
  storage::CrashableDisk* disk = fut_->crash_disk();
  if (disk == nullptr) return Errno::kEINVAL;
  // Everything written so far (mkfs, free-space equalization) is the
  // durable baseline; crash states never reach back before it.
  disk->MarkClean();
  return oracle_.SeedFromTree(fut_->inner());
}

Status CrashConsistencyChecker::ObserveOp(const Operation& op,
                                          const OpOutcome& outcome) {
  return oracle_.ObserveOp(fut_->inner(), op, outcome);
}

Result<std::string> CrashConsistencyChecker::Check() {
  storage::CrashableDisk* disk = fut_->crash_disk();
  if (disk == nullptr) return Errno::kEINVAL;
  // Each state is checked as it is enumerated; the first failure ends
  // the walk.
  Result<std::string> verdict = std::string();
  disk->VisitCrashStates(options_.states, [&](storage::CrashState st) {
    ++states_checked_;
    auto probe = fut_->BuildRecoveryProbe(std::move(st.image));
    if (!probe.ok()) {
      verdict = probe.error();
      return false;
    }
    fs::FileSystem& fs = *probe.value();
    if (Status s = fs.Mount(); !s.ok()) {
      verdict = std::string("crash: recovered mount failed on ") +
                fut_->name() + " [" + st.Describe() +
                "]: " + std::string(ErrnoName(s.error()));
      return false;
    }
    std::string detail = oracle_.ValidateRecovered(fs);
    if (!detail.empty()) {
      verdict = "crash: persistence violation on " + fut_->name() + " [" +
                st.Describe() + "]: " + detail;
      return false;
    }
    return true;
  });
  return verdict;
}

}  // namespace mcfs::core
