// The file-system syscall engine: the Promela do..od loop of the paper's
// prototype (§4), realized as a mc::System over N >= 2 file systems.
//
// Each action issues one (meta-)operation with pool-drawn parameters to
// EVERY member, runs the integrity checks, and computes the combined
// abstract state. Concrete save/restore delegates to each FsUnderTest's
// strategy (remount / ioctl / VM).
//
// A pair is just N = 2. With three or more members (a panel) the checks
// become a majority vote — the paper's §7 future work: "We also plan to
// run more than two file systems concurrently with MCFS and use a
// majority-voting approach to recognize incorrect file-system behavior."
// The vote names the minority members as suspects instead of only
// reporting that two file systems disagree (see Vote in checker.h).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "mc/state.h"
#include "mcfs/abstraction.h"
#include "mcfs/checker.h"
#include "mcfs/coverage.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"
#include "mcfs/persistence_oracle.h"
#include "mcfs/trace.h"

namespace mcfs::core {

struct EngineOptions {
  ParameterPool pool = ParameterPool::Default();
  CheckerOptions checker;
  AbstractionOptions abstraction;
  // Compare the two file systems' abstract states after every operation
  // (the "identical states" integrity check of §2). Return-value checks
  // run regardless.
  bool compare_states = true;
  // Cap on trace memory for long runs.
  std::size_t trace_cap = 1024;
  // Crash-consistency exploration (DESIGN.md §7.7). Effective only when
  // the FsUnderTests were built with crashable_device; the explorer
  // drives the actual checks via ExplorerOptions::crash_mode.
  CrashCheckOptions crash;
  // Index of an oracle member (the executable POSIX spec, FsKind::kSpec).
  // When set, votes are absolute rather than relative: the reference
  // group is the oracle's group regardless of its size, suspicion accrues
  // against every member that disagrees with the oracle — never against
  // the oracle itself — and an outvoted oracle is reported as "spec says
  // majority is wrong" instead of the spec accumulating suspicion.
  std::optional<std::size_t> oracle_index;
};

struct EngineCounters {
  std::uint64_t ops_executed = 0;
  std::uint64_t discrepancies = 0;
  // Infrastructure-level anomalies (abstraction walk failed, remount
  // failed): the corrupted-file-system symptom of §3.2.
  std::uint64_t corruption_events = 0;
  // Abstraction hot-path accounting, summed over all members. In
  // full-recompute mode every refresh is one full walk per member; in
  // incremental mode (AbstractionOptions::incremental) refreshes re-hash
  // only the touched nodes and full recomputes stay rare (cache misses,
  // fallback paths, paranoid cross-checks).
  std::uint64_t abstraction_full_recomputes = 0;
  std::uint64_t abstraction_incremental_refreshes = 0;
  std::uint64_t abstraction_nodes_rehashed = 0;
  // Crash-exploration accounting: CrashCheck() invocations and the total
  // number of crash states mounted + validated across all members.
  std::uint64_t crash_checks = 0;
  std::uint64_t crash_states_checked = 0;
  // Snapshot-pool accounting, sampled after every concrete save/discard
  // and summed over all members. Byte figures come from the
  // structurally-shared pool walk (fs::SnapshotStats): shared = reachable
  // from more than one live snapshot, exclusive = unique to one. All zero
  // for strategies without a snapshot pool (remount, VM).
  std::uint64_t snapshots_live = 0;
  std::uint64_t snapshots_peak = 0;
  std::uint64_t snapshot_total_bytes = 0;
  std::uint64_t snapshot_shared_bytes = 0;
  std::uint64_t snapshot_exclusive_bytes = 0;
};

class SyscallEngine final : public mc::System {
 public:
  // At least two members; all must outlive the engine. The exception
  // lists are automatically extended with each member's SpecialPaths()
  // and the free-space fill file. An out-of-range oracle_index is
  // dropped (plain majority voting).
  SyscallEngine(std::vector<FsUnderTest*> members, EngineOptions options);

  // mc::System.
  std::size_t ActionCount() const override { return actions_.size(); }
  std::string ActionName(std::size_t action) const override;
  // Apply(actions()[action]).
  Status ApplyAction(std::size_t action) override;
  // Issues `op` to every member and runs the checks: the step every
  // explored action and every replayed trace record goes through.
  // Snapshot records belong to SaveConcrete/RestoreConcrete instead.
  Status Apply(const Operation& op);
  bool violation_detected() const override { return violation_.has_value(); }
  std::string violation_report() const override {
    return violation_.value_or("");
  }
  Md5Digest AbstractHash() override;
  Result<mc::SnapshotId> SaveConcrete() override;
  Status RestoreConcrete(mc::SnapshotId id) override;
  Status DiscardConcrete(mc::SnapshotId id) override;
  std::uint64_t ConcreteStateBytes() const override;
  // Crash-consistency check (ExplorerOptions::crash_mode): enumerate the
  // crash states each member's in-flight writes permit, remount each on a
  // recovery probe, validate against the persistence oracle. A contract
  // breach lands in violation_detected() like any other discrepancy and
  // marks the trace record of the operation it convicts.
  Status CrashCheck() override;
  // POR footprints: StaticTouchedPaths per action, expanded with
  // hard-link alias classes (computed once at construction; see
  // ComputeStaticFootprints).
  mc::ActionFootprint StaticActionFootprint(std::size_t action) const override {
    return footprints_.at(action);
  }

  const EngineCounters& counters() const { return counters_; }
  // Operations and snapshots in execution order; each record carries
  // members 0 and 1 (Mcfs::Replay and shrinking are two-member).
  const Trace& trace() const { return trace_; }
  // Outcome coverage across all members (paper §7 future work).
  const SyscallCoverage& coverage() const { return coverage_; }
  const std::vector<Operation>& actions() const { return actions_; }
  const EngineOptions& options() const { return options_; }
  // Mutable access for ablation harnesses (e.g. stripping the §3.4
  // workarounds after construction to measure the false positives they
  // suppress).
  EngineOptions& mutable_options() { return options_; }

  // True when this engine runs the incremental abstraction (requested
  // via options and every member's strategy restores coherently).
  bool incremental_abstraction() const { return incremental_; }

  std::size_t fs_count() const { return members_.size(); }
  const std::string& fs_name(std::size_t index) const {
    return members_[index]->name();
  }
  // Cumulative suspicion counters: how often each member landed outside
  // the reference group. The buggy implementation accumulates suspicion;
  // a tie convicts nobody. In oracle mode the oracle's own entry stays
  // zero by construction.
  const std::vector<std::uint64_t>& suspicion_counts() const {
    return suspicion_;
  }
  // Oracle mode: how often each member disagreed with the oracle (outcome
  // or abstract state). All zeros when no oracle is configured.
  const std::vector<std::uint64_t>& oracle_disagreement_counts() const {
    return oracle_disagreements_;
  }

 private:
  // Computes each member's abstract state (mount-state aware) and caches
  // the combined digest; flags a violation if the states differ. `touched`
  // carries the just-executed operation's dirty paths, one set per
  // member; null means "no operation since the last refresh" (the
  // incremental caches then answer from memory when valid).
  Status RefreshAbstractState(bool check_equality,
                              const std::vector<TouchedPathSet>* touched);
  // One member's digest under the active abstraction mode.
  Result<Md5Digest> MemberDigest(std::size_t i, const TouchedPathSet* touched);
  void SyncAbstractionCounters();
  // Refreshes the EngineCounters snapshot-pool fields from every
  // member's FsUnderTest::StateStats().
  void SampleSnapshotStats();
  // Charges a non-tie vote's minority to the suspicion (and oracle)
  // tallies and returns their names, each preceded by a space.
  std::string Convict(const VoteResult& vote);
  // Fills footprints_ from StaticTouchedPaths over actions_, then
  // expands each path with its hard-link alias class so the dependence
  // relation stays sound when two pool paths can name one inode.
  void ComputeStaticFootprints();

  std::vector<FsUnderTest*> members_;
  EngineOptions options_;
  std::vector<Operation> actions_;
  std::vector<mc::ActionFootprint> footprints_;
  std::optional<std::string> violation_;
  std::optional<Md5Digest> cached_hash_;
  EngineCounters counters_;
  Trace trace_;
  SyscallCoverage coverage_;
  std::vector<std::uint64_t> suspicion_;
  std::vector<std::uint64_t> oracle_disagreements_;
  mc::SnapshotId next_snapshot_ = 1;
  // Incremental abstraction state (one cache per member, epoch-tagged
  // against this engine's snapshot ids).
  bool incremental_ = false;
  std::vector<IncrementalAbstraction> inc_;
  // Crash-exploration state, one per member (null unless
  // options_.crash.enabled and the member records into a CrashableDisk).
  std::vector<std::unique_ptr<CrashConsistencyChecker>> crash_;
  Status crash_seed_status_ = Status::Ok();
};

}  // namespace mcfs::core
