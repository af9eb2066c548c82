// Mcfs: the assembled model checker — two file-system stacks, the
// syscall engine, the explorer, and the optional memory model, behind one
// Run() call. This is the library's primary entry point; the examples
// and every benchmark drive it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mc/explorer.h"
#include "mc/memory_model.h"
#include "mc/swarm.h"
#include "mcfs/equalize.h"
#include "mcfs/syscall_engine.h"
#include "verifs/mutations.h"

namespace mcfs::core {

struct McfsConfig {
  FsUnderTestConfig fs_a;
  FsUnderTestConfig fs_b;
  EngineOptions engine;
  mc::ExplorerOptions explore;
  // Attach a MemoryModel (Figure 3 runs).
  bool enable_memory_model = false;
  mc::MemoryModelOptions memory;
};

struct McfsReport {
  mc::ExploreStats stats;
  EngineCounters counters;
  double sim_ops_per_sec = 0;   // operations / simulated second
  double wall_ops_per_sec = 0;  // operations / host second
  std::uint64_t remounts_a = 0;
  std::uint64_t remounts_b = 0;
  std::string trace_text;       // tail of the operation trace
  // Oracle-mode runs: per-member (name, times-disagreed-with-the-spec)
  // tally. Empty unless filled via AttachOracleTally.
  std::vector<std::pair<std::string, std::uint64_t>> oracle_disagreements;

  // One-paragraph human summary.
  std::string Summary() const;
};

// What one Mcfs::Replay saw.
struct ReplayResult {
  bool reproduced = false;          // a violation occurred during replay
  std::size_t violation_index = 0;  // the record that raised it
  std::string detail;               // its violation report
};

class Mcfs {
 public:
  // Builds both stacks (mkfs + mount) and the engine; `Create` fails if
  // a config is inconsistent (e.g. ioctl strategy on a kernel FS).
  static Result<std::unique_ptr<Mcfs>> Create(McfsConfig config);

  // Runs exploration per the config and reports.
  McfsReport Run();

  // Replays `trace` through the engine calls the explorer makes, in its
  // order: one root AbstractHash(), then kCheckpoint/kRestore records
  // through SaveConcrete/RestoreConcrete (each recorded key maps to the
  // snapshot id this engine hands out) and every operation through
  // SyscallEngine::Apply, followed by CrashCheck() under
  // CrashMode::kEveryOp. Stops at the first violation. A restore of an
  // unknown key, or any engine error, ends the replay unreproduced.
  // Replay on a freshly created stack; engine().trace() then holds what
  // the replay observed.
  ReplayResult Replay(const Trace& trace);

  SimClock& clock() { return clock_; }
  SyscallEngine& engine() { return *engine_; }
  FsUnderTest& fs_a() { return *fs_a_; }
  FsUnderTest& fs_b() { return *fs_b_; }
  mc::MemoryModel* memory() { return memory_.get(); }

 private:
  Mcfs() = default;

  McfsConfig config_;
  SimClock clock_;
  std::unique_ptr<mc::MemoryModel> memory_;
  std::unique_ptr<FsUnderTest> fs_a_;
  std::unique_ptr<FsUnderTest> fs_b_;
  std::unique_ptr<SyscallEngine> engine_;
};

// Copies an oracle-mode engine's per-member oracle-disagreement tally
// into `report` so McfsReport::Summary surfaces it next to the
// exploration stats. No-op when the engine has no oracle configured.
void AttachOracleTally(const SyscallEngine& engine, McfsReport* report);

// Adapter so a whole Mcfs instance can serve as one swarm worker.
class McfsSwarmInstance final : public mc::SwarmInstance {
 public:
  explicit McfsSwarmInstance(std::unique_ptr<Mcfs> mcfs)
      : mcfs_(std::move(mcfs)) {}

  mc::System& system() override { return mcfs_->engine(); }
  SimClock* clock() override { return &mcfs_->clock(); }
  Mcfs& mcfs() { return *mcfs_; }

 private:
  std::unique_ptr<Mcfs> mcfs_;
};

// Builds a SwarmFactory that assembles one complete Mcfs stack (both
// file systems, engine, clock) per worker from `config`. Workers share
// nothing through the factory; in a cooperative swarm the only shared
// state is the visited store the Swarm itself injects. Aborts if a
// worker's stack cannot be built — swarm workers have no error channel.
mc::SwarmFactory MakeMcfsSwarmFactory(McfsConfig config);

// ---------------------------------------------------------------------
// The mutation self-verification campaign.
// ---------------------------------------------------------------------

// Rebuilds a replayable Trace from an explorer violation trail (action
// names from the initial state, as in ExploreStats::violation_trail).
// The result is the semantic root-to-violation path — no snapshot
// records — which is a far smaller shrink seed than the raw linear
// history whenever the file systems restore faithfully. Fails with
// kEINVAL on a name that is not in the engine's action set.
Result<Trace> TraceFromTrail(const SyscallEngine& engine,
                             const std::vector<std::string>& trail);

struct MutationCampaignOptions {
  ParameterPool pool = ParameterPool::Default();
  std::uint64_t max_operations = 40'000;
  std::uint32_t max_depth = 6;
  // Tried in order until one run detects the mutant.
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  bool fuse_transport = true;   // the §3.2 cache mutants need it
  bool minimize = true;         // shrink each detecting trace
  std::size_t max_replays = 5'000;  // shrink budget per mutant
  // Raw-trace cap for the detecting run. Must exceed the operation count
  // (plus interleaved snapshot records) or the trace loses its prefix
  // and stops being a faithful linear history.
  std::size_t trace_cap = 500'000;
  std::vector<std::string> only;  // restrict to these mutant names
  // Second campaign axis: pair every non-crash mutant against the
  // executable POSIX spec (FsKind::kSpec) as an absolute 2-way oracle in
  // addition to the pristine-twin relative run. This is what kills the
  // dual mutants — identical bugs seeded into both VeriFS families that
  // relative checking cannot see by construction.
  bool spec_axis = true;
};

// One campaign axis for one mutant: the seeds are explored in order
// until a run detects, then the detecting trace is shrunk and
// replay-confirmed.
struct AxisResult {
  bool detected = false;
  std::uint64_t seed = 0;           // seed of the detecting run
  std::uint64_t ops_to_detect = 0;  // operations explored by that run
  std::size_t raw_trace_ops = 0;    // records in the raw trace
  std::size_t minimized_ops = 0;    // records after shrinking
  bool replay_confirmed = false;    // minimized trace re-reproduced
  bool one_minimal = false;
  std::size_t shrink_replays = 0;
  std::string violation;        // explorer's violation report
  std::string minimized_trace;  // ToText() of the confirming replay
};

struct MutantOutcome {
  std::string name;
  std::string hint;
  bool historical = false;
  bool expect_detected = true;
  bool crash = false;        // explored under the crash axis
  bool dual = false;         // same bug in both families (spec-axis prey)
  // "live" or "crash" when the relative axis caught it; "spec" when only
  // the spec axis did; empty when nothing killed the mutant.
  std::string killed_by;
  AxisResult relative;  // mutant vs its pristine twin (or dual partner)
  // Mutant vs FsKind::kSpec, an absolute 2-way check. spec_ran is false
  // for crash mutants and when MutationCampaignOptions::spec_axis is off.
  bool spec_ran = false;
  AxisResult spec;
};

struct MutationCampaignReport {
  std::vector<MutantOutcome> outcomes;
  std::size_t expected_detections = 0;  // mutants with expect_detected
  std::size_t detections = 0;           // of those, how many were caught
  double kill_rate = 0;                 // detections / expected_detections
  std::vector<std::string> missed;      // expected but undetected
  std::vector<std::string> unexpected;  // detected despite expect_detected=false
  // Spec-axis tallies. A mutant is spec-expected when the axis ran for it
  // and it is either expected relatively (the spec must not be weaker
  // than the pristine twin) or dual (only the spec can kill it).
  std::size_t spec_expected_detections = 0;
  std::size_t spec_detections = 0;
  double spec_kill_rate = 0;
  std::vector<std::string> spec_missed;

  // Machine-readable artifact (one self-contained JSON object).
  std::string ToJson() const;
  // Human-readable table + kill-rate line.
  std::string Summary() const;
};

// Mutant-vs-reference pairing for one corpus entry: the mutant's own
// family (VeriFS1 or VeriFS2) with the bug flags applied on side B and a
// pristine twin on side A, both under the ioctl strategy. The campaign
// always runs the full-recompute abstraction: the incremental cache
// deliberately trusts restores, which is exactly what the restore
// mutants violate.
//
// Crash mutants (Mutant::crash) pair the named kernel family against its
// pristine twin under the kVfsApi strategy with a crashable device,
// fsync in the pool, and the explorer's crash mode on — their defects
// are invisible to live differential checking by construction and only
// the persistence oracle can kill them (killed_by == "crash").
McfsConfig MutantCampaignConfig(const verifs::Mutant& mutant,
                                const MutationCampaignOptions& options,
                                std::uint64_t seed);

// Spec-axis pairing for one non-crash corpus entry: the executable POSIX
// spec (FsKind::kSpec) on side A as an absolute oracle and the mutant's
// own family with the bug flags on side B. 2-way against the spec is
// absolute checking: it kills the dual mutants whose relative runs pit
// two identically-buggy implementations against each other.
McfsConfig SpecMutantCampaignConfig(const verifs::Mutant& mutant,
                                    const MutationCampaignOptions& options,
                                    std::uint64_t seed);

// Runs every corpus mutant (or `options.only`) through explore → detect
// → minimize → replay-confirm and aggregates the kill rate.
MutationCampaignReport RunMutationCampaign(
    const MutationCampaignOptions& options);

}  // namespace mcfs::core
