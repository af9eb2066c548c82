#include "mcfs/syscall_engine.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "fs/path.h"
#include "mcfs/equalize.h"

namespace mcfs::core {

namespace {

// Features supported by EVERY member.
std::vector<fs::FsFeature> CommonFeatures(
    const std::vector<FsUnderTest*>& members) {
  std::vector<fs::FsFeature> common = members.front()->SupportedFeatures();
  for (std::size_t i = 1; i < members.size(); ++i) {
    const auto features = members[i]->SupportedFeatures();
    std::erase_if(common, [&features](fs::FsFeature f) {
      return std::find(features.begin(), features.end(), f) == features.end();
    });
  }
  return common;
}

}  // namespace

SyscallEngine::SyscallEngine(std::vector<FsUnderTest*> members,
                             EngineOptions options)
    : members_(std::move(members)),
      options_(std::move(options)),
      suspicion_(members_.size(), 0),
      oracle_disagreements_(members_.size(), 0),
      inc_(members_.size()),
      crash_(members_.size()) {
  if (options_.oracle_index.has_value() &&
      *options_.oracle_index >= members_.size()) {
    options_.oracle_index.reset();
  }
  // Extend the exception lists with FS-created special paths (§3.4) and
  // the free-space fill file.
  auto add_special = [this](const std::string& path) {
    options_.abstraction.exception_list.push_back(path);
    options_.checker.special_names.push_back(fs::Basename(path));
  };
  for (FsUnderTest* fut : members_) {
    for (const auto& path : fut->SpecialPaths()) add_special(path);
  }
  add_special(kFillFilePath);
  options_.abstraction.ignore_directory_sizes =
      options_.checker.ignore_directory_sizes;

  // The incremental cache assumes restores reproduce the saved logical
  // state; kMountOnce breaks that on purpose (§3.2), so it always runs
  // the full walk — that is how its corruption gets observed.
  incremental_ = options_.abstraction.incremental &&
                 std::none_of(members_.begin(), members_.end(),
                              [](const FsUnderTest* fut) {
                                return fut->config().strategy ==
                                       StateStrategy::kMountOnce;
                              });

  actions_ = options_.pool.EnumerateAll(CommonFeatures(members_));
  ComputeStaticFootprints();

  // Crash-exploration checkers, one per member with a recording device.
  // The oracle ignores the same noise paths the abstraction does.
  if (options_.crash.enabled) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      FsUnderTest& fut = *members_[i];
      if (fut.crash_disk() == nullptr) continue;
      CrashCheckOptions member = options_.crash;
      for (const auto& path : fut.SpecialPaths()) {
        member.oracle.exempt_paths.push_back(path);
      }
      member.oracle.exempt_paths.push_back(std::string(kFillFilePath));
      crash_[i] =
          std::make_unique<CrashConsistencyChecker>(&fut, std::move(member));
      if (Status s = crash_[i]->SeedInitial();
          !s.ok() && crash_seed_status_.ok()) {
        crash_seed_status_ = s;
      }
    }
  }
}

std::string SyscallEngine::ActionName(std::size_t action) const {
  return actions_.at(action).ToString();
}

void SyscallEngine::ComputeStaticFootprints() {
  footprints_.clear();
  footprints_.reserve(actions_.size());
  for (const Operation& op : actions_) {
    footprints_.push_back(StaticTouchedPaths(op));
  }

  // Hard-link alias classes. link(a, b) makes two pool paths name one
  // inode, so an op whose footprint holds one name can mutate (or read)
  // node state hashed under the other — a purely lexical dependence
  // relation would wrongly commute write(a) with stat(b). Classes are
  // seeded from every enumerated kLink pair, then grown along rename
  // edges to a fixpoint: rename can carry an aliased *name* to a new
  // path (link(a,b); rename(a,c) leaves c and b aliased), but a rename
  // only matters once one of its endpoints' classes is already
  // nontrivial — unconditional rename unioning would fuse nearly the
  // whole pool and zero out the reduction. Symlinks seed nothing: the
  // digest hashes the link node itself (lstat-shaped), and no enumerated
  // action resolves through a symlink component; revisit if
  // follow-the-link operations are ever added to the pool.
  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::size_t> uf;
  auto node = [&index, &uf](const std::string& path) {
    const auto [it, inserted] = index.emplace(path, uf.size());
    if (inserted) uf.push_back(it->second);
    return it->second;
  };
  auto find = [&uf](std::size_t x) {
    while (uf[x] != x) x = uf[x] = uf[uf[x]];
    return x;
  };
  auto unite = [&uf, &find](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) uf[a] = b;
  };

  bool any_link = false;
  for (const Operation& op : actions_) {
    if (op.kind == OpKind::kLink) {
      unite(node(op.path), node(op.path2));
      any_link = true;
    }
  }
  if (!any_link) return;

  auto nontrivial = [&uf, &find](std::size_t x) {
    x = find(x);
    std::size_t members = 0;
    for (std::size_t i = 0; i < uf.size(); ++i) {
      if (find(i) == x && ++members >= 2) return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Operation& op : actions_) {
      if (op.kind != OpKind::kRename || op.path == op.path2) continue;
      const std::size_t a = node(op.path);
      const std::size_t b = node(op.path2);
      if (find(a) == find(b)) continue;
      if (nontrivial(a) || nontrivial(b)) {
        unite(a, b);
        changed = true;
      }
    }
  }

  std::unordered_map<std::size_t, std::vector<std::string>> classes;
  for (const auto& [path, idx] : index) {
    classes[find(idx)].push_back(path);
  }
  for (mc::ActionFootprint& fp : footprints_) {
    if (fp.full || fp.paths.empty()) continue;
    std::vector<std::string> expanded = fp.paths;
    for (const std::string& path : fp.paths) {
      const auto it = index.find(path);
      if (it == index.end()) continue;
      const std::vector<std::string>& cls = classes[find(it->second)];
      if (cls.size() < 2) continue;
      for (const std::string& alias : cls) {
        if (std::find(expanded.begin(), expanded.end(), alias) ==
            expanded.end()) {
          expanded.push_back(alias);
        }
      }
    }
    fp.paths = std::move(expanded);
  }
}

Result<Md5Digest> SyscallEngine::MemberDigest(std::size_t i,
                                              const TouchedPathSet* touched) {
  vfs::Vfs& vfs = members_[i]->vfs();
  if (!incremental_) {
    ++counters_.abstraction_full_recomputes;
    return ComputeAbstractState(vfs, options_.abstraction);
  }
  return touched != nullptr
             ? inc_[i].Refresh(vfs, options_.abstraction, *touched)
             : inc_[i].Current(vfs, options_.abstraction);
}

void SyscallEngine::SyncAbstractionCounters() {
  if (!incremental_) return;
  counters_.abstraction_full_recomputes = 0;
  counters_.abstraction_incremental_refreshes = 0;
  counters_.abstraction_nodes_rehashed = 0;
  for (const IncrementalAbstraction& inc : inc_) {
    counters_.abstraction_full_recomputes += inc.full_recomputes();
    counters_.abstraction_incremental_refreshes +=
        inc.incremental_refreshes();
    counters_.abstraction_nodes_rehashed += inc.nodes_rehashed();
  }
}

std::string SyscallEngine::Convict(const VoteResult& vote) {
  std::string names;
  for (std::size_t i : vote.minority) {
    ++suspicion_[i];
    if (options_.oracle_index.has_value()) ++oracle_disagreements_[i];
    names += " " + fs_name(i);
  }
  return names;
}

Status SyscallEngine::RefreshAbstractState(
    bool check_equality, const std::vector<TouchedPathSet>* touched) {
  const std::size_t n = members_.size();
  // A valid incremental cache answers from memory with no walk at all —
  // in that case the file systems need not even be mounted (DFS restores
  // hit this constantly).
  const bool from_cache =
      incremental_ && touched == nullptr &&
      std::all_of(inc_.begin(), inc_.end(),
                  [](const IncrementalAbstraction& c) { return c.valid(); });
  if (!from_cache) {
    // The walk needs mounted file systems; remount-per-op strategies may
    // have them unmounted at this point.
    for (FsUnderTest* fut : members_) {
      if (Status s = fut->EnsureMounted(); !s.ok()) return s;
    }
  }

  std::vector<Result<Md5Digest>> digests;
  digests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    digests.push_back(
        MemberDigest(i, touched != nullptr ? &(*touched)[i] : nullptr));
  }
  SyncAbstractionCounters();
  for (std::size_t i = 0; i < n; ++i) {
    if (digests[i].ok()) continue;
    // The walk itself failed: a §3.2-style corrupted file system (e.g.
    // dangling dcache entries after an unsynchronized restore).
    ++counters_.corruption_events;
    violation_ = "file system corruption detected: abstraction walk failed "
                 "on " +
                 fs_name(i) + " with " +
                 std::string(ErrnoName(digests[i].error()));
    return Status::Ok();  // reported as violation, not infrastructure error
  }

  // Paranoid mode (verify_every_n): an incremental digest disagreeing
  // with its own from-scratch recompute is an infrastructure bug in the
  // cache, not a file-system discrepancy — surface it loudly.
  if (incremental_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (inc_[i].divergence().has_value()) {
        ++counters_.corruption_events;
        violation_ = "incremental abstraction divergence on " + fs_name(i) +
                     ": " + *inc_[i].divergence();
        return Status::Ok();
      }
    }
  }

  if (check_equality && options_.compare_states) {
    const VoteResult vote = Elect(
        n,
        [&digests](std::size_t i, std::size_t j) {
          return digests[i].value() == digests[j].value();
        },
        options_.oracle_index);
    if (!vote.unanimous) {
      ++counters_.discrepancies;
      std::ostringstream detail;
      if (vote.tie) {
        const std::size_t j = vote.split;
        detail << "state divergence: abstract states differ (" << fs_name(0)
               << "=" << digests[0].value().ToHex() << ", " << fs_name(j)
               << "=" << digests[j].value().ToHex() << ")";
      } else if (vote.oracle_overruled_majority) {
        detail << "state divergence — spec says majority is wrong (oracle "
               << vote.agree << "/" << n << " vs majority " << vote.largest
               << "/" << n << "); deviating:" << Convict(vote);
      } else {
        detail << "state divergence ("
               << (options_.oracle_index ? "oracle " : "majority ")
               << vote.agree << "/" << n << "); deviating:" << Convict(vote);
      }
      violation_ = detail.str();
    }
  }

  // Combined digest = hash of the member digests in order: the
  // visited-state identity of the whole panel, which is what exploration
  // dedupes on.
  Md5 combined;
  for (const Result<Md5Digest>& digest : digests) {
    combined.Update(ByteView(digest.value().bytes.data(), 16));
  }
  // Crash mode: two logically identical states with different in-flight
  // write sets reach different crash states, so the journals join the
  // visited identity — otherwise dedup would skip schedules whose only
  // difference is what a crash can tear.
  for (std::size_t i = 0; i < n; ++i) {
    if (crash_[i] != nullptr && members_[i]->crash_disk() != nullptr) {
      combined.UpdateU64(members_[i]->crash_disk()->StateDigest());
    }
  }
  cached_hash_ = combined.Final();
  return Status::Ok();
}

Status SyscallEngine::ApplyAction(std::size_t action) {
  if (action >= actions_.size()) return Errno::kEINVAL;
  return Apply(actions_[action]);
}

Status SyscallEngine::Apply(const Operation& op) {
  const std::size_t n = members_.size();
  violation_.reset();
  cached_hash_.reset();

  for (std::size_t i = 0; i < n; ++i) {
    if (Status s = members_[i]->BeginOp(); !s.ok()) {
      ++counters_.corruption_events;
      // BeginOp on earlier members may have remounted after the op.
      for (std::size_t j = 0; j < i; ++j) inc_[j].Invalidate();
      violation_ = "remount failed on " + fs_name(i) + ": " +
                   std::string(ErrnoName(s.error()));
      return Status::Ok();
    }
  }

  std::vector<OpOutcome> outcomes;
  outcomes.reserve(n);
  for (FsUnderTest* fut : members_) {
    outcomes.push_back(ExecuteOp(fut->vfs(), op));
  }
  ++counters_.ops_executed;
  for (const OpOutcome& outcome : outcomes) {
    coverage_.Record(op.kind, outcome.error);
  }

  const VoteResult vote =
      Vote(op, outcomes, options_.checker, options_.oracle_index);
  if (!vote.unanimous) {
    ++counters_.discrepancies;
    violation_ = vote.tie ? vote.detail + " (" + fs_name(0) + " vs " +
                                fs_name(vote.split) + ")"
                          : vote.detail + " — suspects:" + Convict(vote);
  }

  // Full-state integrity check + abstract hash for visited matching.
  if (!violation_.has_value()) {
    std::vector<TouchedPathSet> touched;
    touched.reserve(n);
    for (const OpOutcome& outcome : outcomes) {
      touched.push_back(TouchedPaths(op, outcome));
    }
    if (Status s = RefreshAbstractState(/*check_equality=*/true, &touched);
        !s.ok()) {
      return s;
    }
    // Feed the persistence oracles while the file systems are mounted.
    if (!violation_.has_value()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (crash_[i] == nullptr) continue;
        if (Status s = crash_[i]->ObserveOp(op, outcomes[i]); !s.ok()) {
          return s;
        }
      }
    }
  } else {
    // The operation ran but its effects were never folded into the
    // caches; if exploration continues past this violation
    // (ClearViolation), the next digest must come from a fresh walk.
    for (IncrementalAbstraction& inc : inc_) inc.Invalidate();
  }

  trace_.Append(op, outcomes[0], outcomes[1], violation_.has_value());
  trace_.TrimToLast(options_.trace_cap);

  for (FsUnderTest* fut : members_) {
    if (Status s = fut->EndOp(); !s.ok()) return s;
  }
  return Status::Ok();
}

Md5Digest SyscallEngine::AbstractHash() {
  if (!cached_hash_.has_value()) {
    if (Status s = RefreshAbstractState(/*check_equality=*/false,
                                        /*touched=*/nullptr);
        !s.ok() || !cached_hash_.has_value()) {
      // Infrastructure failure: return a sentinel digest; the explorer
      // will already have surfaced the violation.
      return Md5Digest{};
    }
    for (FsUnderTest* fut : members_) (void)fut->EndOp();
  }
  return *cached_hash_;
}

Result<mc::SnapshotId> SyscallEngine::SaveConcrete() {
  const mc::SnapshotId id = next_snapshot_++;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (Status s = members_[i]->SaveState(id); !s.ok()) {
      for (std::size_t j = 0; j < i; ++j) (void)members_[j]->DiscardState(id);
      return s.error();
    }
  }
  if (incremental_) {
    // Epoch-tag the digest caches alongside the concrete snapshots so a
    // restore rolls them back instead of dropping them.
    for (IncrementalAbstraction& inc : inc_) inc.SaveEpoch(id);
  }
  // The oracle's history must rewind with the tree it describes.
  for (const auto& checker : crash_) {
    if (checker != nullptr) checker->Save(id);
  }
  // Log the snapshot into the trace: with save/restore recorded, the raw
  // trace is a faithful linear history and stays replayable across
  // backtracks (see Mcfs::Replay).
  Operation op{.kind = OpKind::kCheckpoint, .offset = id};
  trace_.Append(op, OpOutcome{}, OpOutcome{}, /*violation=*/false);
  trace_.TrimToLast(options_.trace_cap);
  SampleSnapshotStats();
  return id;
}

Status SyscallEngine::RestoreConcrete(mc::SnapshotId id) {
  cached_hash_.reset();
  violation_.reset();
  if (incremental_) {
    // A miss (epoch unknown, or saved while invalid) invalidates, which
    // degrades to one full recompute — never to a stale digest.
    for (IncrementalAbstraction& inc : inc_) (void)inc.RestoreEpoch(id);
  }
  for (FsUnderTest* fut : members_) {
    if (Status s = fut->RestoreState(id); !s.ok()) return s;
  }
  for (const auto& checker : crash_) {
    if (checker == nullptr) continue;
    if (Status s = checker->Restore(id); !s.ok()) return s;
  }
  Operation op{.kind = OpKind::kRestore, .offset = id};
  trace_.Append(op, OpOutcome{}, OpOutcome{}, /*violation=*/false);
  trace_.TrimToLast(options_.trace_cap);
  return Status::Ok();
}

Status SyscallEngine::DiscardConcrete(mc::SnapshotId id) {
  for (IncrementalAbstraction& inc : inc_) inc.DiscardEpoch(id);
  for (const auto& checker : crash_) {
    if (checker != nullptr) checker->Discard(id);
  }
  // Every member releases its snapshot even if an earlier one failed.
  Status first = Status::Ok();
  for (FsUnderTest* fut : members_) {
    if (Status s = fut->DiscardState(id); !s.ok() && first.ok()) first = s;
  }
  SampleSnapshotStats();
  return first;
}

std::uint64_t SyscallEngine::ConcreteStateBytes() const {
  std::uint64_t total = 0;
  for (const FsUnderTest* fut : members_) total += fut->StateBytes();
  return total;
}

void SyscallEngine::SampleSnapshotStats() {
  fs::SnapshotStats sum;
  for (const FsUnderTest* fut : members_) {
    const fs::SnapshotStats s = fut->StateStats();
    sum.count += s.count;
    sum.total_bytes += s.total_bytes;
    sum.shared_bytes += s.shared_bytes;
    sum.exclusive_bytes += s.exclusive_bytes;
  }
  counters_.snapshots_live = sum.count;
  counters_.snapshots_peak =
      std::max(counters_.snapshots_peak, counters_.snapshots_live);
  counters_.snapshot_total_bytes = sum.total_bytes;
  counters_.snapshot_shared_bytes = sum.shared_bytes;
  counters_.snapshot_exclusive_bytes = sum.exclusive_bytes;
}

Status SyscallEngine::CrashCheck() {
  if (std::all_of(crash_.begin(), crash_.end(),
                  [](const auto& checker) { return checker == nullptr; })) {
    return Status::Ok();
  }
  if (!crash_seed_status_.ok()) return crash_seed_status_;
  ++counters_.crash_checks;
  std::uint64_t states = 0;
  for (const auto& checker : crash_) {
    if (checker == nullptr) continue;
    Result<std::string> r = checker->Check();
    if (!r.ok()) return r.error();
    if (!r.value().empty() && !violation_.has_value()) {
      ++counters_.discrepancies;
      violation_ = r.value();
      // The check follows the operation it convicts, so that operation
      // is the newest record.
      if (trace_.size() > 0) trace_.mutable_records().back().violation = true;
    }
    states += checker->states_checked();
  }
  counters_.crash_states_checked = states;
  return Status::Ok();
}

}  // namespace mcfs::core
