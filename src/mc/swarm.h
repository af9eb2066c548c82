// Swarm verification (Holzmann, Joshi, Groce): many verifiers, each with
// a different seed (hence a different exploration order) and typically
// bitstate hashing, run in parallel and jointly cover far more of a large
// state space than one exhaustive search could. The paper chose Spin
// partly for this capability (§2) and plans to lean on it for larger
// spaces (§7).
//
// Two sharing disciplines:
//   * independent (default) — separate System instances, clocks, and
//     visited structures, matching Spin swarm's share-nothing design;
//     coverage is merged after the run. Workers redundantly re-explore
//     states their peers already covered.
//   * cooperative — workers still own their System, clock, and private
//     walk-control table, but share one concurrent visited store
//     (ShardedVisitedTable, or ConcurrentBitstateFilter in bitstate
//     mode) that arbitrates discovery: whichever worker reaches an
//     abstract state first claims the credit, DFS prunes subtrees under
//     peer-claimed states (partitioning the tree), the swarm can stop
//     globally at a unique-state target, and a cancel flag halts all
//     workers promptly once any of them finds a violation.
//
// On top of cooperative DFS, `steal_work` adds a shared work-stealing
// frontier (mc::SharedFrontier) of *unexplored* branches, curing the
// starvation DESIGN.md §7.1 documents: instead of exhausting against
// peer-claimed territory, an idle worker steals a trail, replays it on
// its own System (digest-verified), and keeps searching; the swarm
// terminates only when the frontier is empty and every worker is
// quiescent (DESIGN.md §7.2).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "mc/explorer.h"

namespace mcfs::mc {

// A self-contained bundle: the System plus the clock it charges.
// Factories build one per worker so workers never share mutable state.
class SwarmInstance {
 public:
  virtual ~SwarmInstance() = default;
  virtual System& system() = 0;
  virtual SimClock* clock() = 0;
};

using SwarmFactory = std::function<std::unique_ptr<SwarmInstance>(int)>;

struct SwarmOptions {
  int workers = 4;
  // Per-worker explorer settings; seed and clock are overridden per
  // worker (seed = base_seed + worker index).
  ExplorerOptions base;
  std::uint64_t base_seed = 1;
  bool run_parallel = true;  // false = sequential (deterministic tests)
  // Cooperative mode: share one concurrent visited store across workers
  // (see the file comment). base.use_bitstate selects the store kind.
  bool cooperative = false;
  // Work stealing (requires cooperative, DFS mode): workers additionally
  // share a SharedFrontier of unexplored branches. DFS donates untried
  // siblings while the frontier is hungry and publishes its remaining
  // stack when the op budget cuts it short; an exhausted worker steals
  // an entry, replays its trail on its own System (digest-verified), and
  // resumes DFS there. The swarm then terminates via distributed
  // detection: frontier empty and every worker quiescent.
  bool steal_work = false;
  // Distributed swarm: externally-owned shared structures (typically a
  // net::RemoteVisitedStore / net::RemoteFrontier speaking to servers on
  // other hosts) used *instead of* building in-process ones. Setting
  // shared_store implies cooperative discipline; shared_frontier
  // additionally implies steal_work and attaches only on the DFS mode
  // (a walk has nothing to steal). The swarm does not own either.
  VisitedStore* shared_store = nullptr;
  Frontier* shared_frontier = nullptr;
  // Raise the cancel flag on the first violation so the remaining
  // workers stop promptly instead of burning out their op budgets.
  bool cancel_on_violation = true;
  // Collect the sorted union of abstract-state digests into
  // SwarmResult::merged_union. Off by default (the union can be large);
  // the differential tests use it to prove coverage equality
  // digest-by-digest, not just by count.
  bool collect_union = false;
};

struct SwarmResult {
  // Every worker's full stats, including each worker's own violation
  // report — losing reports are preserved here, not dropped.
  std::vector<ExploreStats> per_worker;
  // Union of abstract states across workers (overlap removed). In
  // cooperative mode this is the shared store's exact size.
  std::uint64_t merged_unique_states = 0;
  // Sum of per-worker unique states (>= merged; the gap is overlap).
  std::uint64_t summed_unique_states = 0;
  std::uint64_t total_operations = 0;
  std::uint64_t total_revisits = 0;
  // Cross-worker redundancy: the fraction of per-worker discoveries that
  // duplicated a peer's, (summed - merged) / summed. Cooperative swarms
  // drive this to 0 — the shared store arbitrates discovery.
  double redundant_discovery_ratio = 0;
  bool any_violation = false;
  // The *first-in-time* violation (the worker that raised the cancel
  // flag), not the lowest-indexed violating worker.
  int first_violation_worker = -1;
  std::string first_violation_report;
  // True if any worker was halted early by the cancel flag.
  bool cancelled = false;
  // Work-stealing accounting (zero unless steal_work was on).
  std::uint64_t steals = 0;             // frontier entries adopted
  std::uint64_t steal_replay_ops = 0;   // actions spent replaying trails
  std::uint64_t steal_digest_mismatches = 0;  // replays failing verify
  std::uint64_t frontier_published = 0;       // entries donated/published
  std::uint64_t frontier_peak = 0;            // high-water entry count
  // Entries never consumed (nonzero only when budgets cut the swarm
  // short with work still queued).
  std::uint64_t frontier_unconsumed = 0;
  // Total wall time workers spent blocked waiting to steal.
  double steal_wait_seconds = 0;
  // Partial-order reduction, summed over workers. Swarm modes gate POR
  // off (see ExplorerOptions::por), so these are nonzero only for the
  // degenerate one-worker/no-sharing configurations that run the solo
  // DFS path; they are surfaced so benches can print one schema for
  // solo and swarm rows.
  std::uint64_t por_pruned_transitions = 0;
  std::uint64_t por_sleep_awakened = 0;
  // Distributed-swarm health (zero for in-process swarms): times the
  // external shared store / frontier fell back to local structures after
  // losing its server, and total failed RPC attempts underneath.
  std::uint64_t store_degradations = 0;
  std::uint64_t frontier_degradations = 0;
  std::uint64_t remote_rpc_failures = 0;
  // Swarm-wide progress time series, monotone in operations and
  // unique-states (one entry per worker sample, aggregated across all
  // workers at that moment). Populated when progress_interval_ops != 0.
  std::vector<ProgressSample> merged_progress;
  // Sorted union of abstract-state digests (only when collect_union).
  std::vector<Md5Digest> merged_union;
};

class Swarm {
 public:
  explicit Swarm(SwarmOptions options);

  SwarmResult Run(const SwarmFactory& factory);

 private:
  SwarmOptions options_;
};

}  // namespace mcfs::mc
