// The state-space explorer: the Spin-shaped heart of MCFS.
//
// Two search modes:
//   * kDfs — bounded-depth depth-first search with backtracking, Spin's
//     default. Every node's concrete state is saved; siblings are
//     explored by restoring it; abstract-state matching prunes revisits.
//     Within the depth/op bounds the search is exhaustive: every
//     permutation of the bounded action set is covered (paper §2).
//   * kRandomWalk — a long nondeterministic walk that backtracks to the
//     last frontier state when it re-enters a visited abstract state.
//     This is the mode the paper's multi-day runs use (Figure 3).
//
// The explorer is deterministic given a seed; a violation comes with the
// action trail that reaches it, which is how the paper reproduces bugs
// ("Spin logs the precise sequence of operations", §2).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "mc/bitstate.h"
#include "mc/frontier.h"
#include "mc/hash_table.h"
#include "mc/memory_model.h"
#include "mc/por.h"
#include "mc/state.h"
#include "mc/visited_store.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace mcfs::mc {

enum class SearchMode { kDfs, kRandomWalk };

// When to run System::CrashCheck() during the search.
enum class CrashMode { kOff, kEveryOp };

// Periodic sample for long-run instrumentation (Figure 3's time series).
struct ProgressSample {
  std::uint64_t operations = 0;
  double sim_seconds = 0;
  std::uint64_t unique_states = 0;
  std::uint64_t swap_used_bytes = 0;
  std::uint64_t table_resizes = 0;
  // Transitions skipped so far by partial-order reduction (0 when POR
  // is off or gated off for this run).
  std::uint64_t por_pruned_transitions = 0;
};

struct ExplorerOptions {
  SearchMode mode = SearchMode::kDfs;
  std::uint64_t max_operations = 100'000;
  std::uint32_t max_depth = 6;
  std::uint64_t seed = 1;
  // Bitstate (supertrace) mode trades completeness for memory.
  bool use_bitstate = false;
  std::uint64_t bitstate_bits = 1ull << 22;
  // Optional instrumentation.
  SimClock* clock = nullptr;        // for sim-time stats and resize stalls
  MemoryModel* memory = nullptr;    // RAM/swap accounting
  // Cost of rehashing one entry during a visited-table resize.
  SimClock::Nanos rehash_cost_per_entry = 150;
  std::function<void(const ProgressSample&)> progress_callback;
  std::uint64_t progress_interval_ops = 0;  // 0 = no sampling
  // Resume support (paper §7: "checkpoint file system states to help us
  // resume the model-checking process if an interruption occurs"): a
  // visited-table image from a previous run's ExportCheckpoint(). States
  // already explored then are not re-counted or re-expanded.
  const Bytes* resume_visited = nullptr;
  // Cooperative swarm support. When `shared_store` is set, discovery is
  // arbitrated through it: a state counts as unique for exactly one
  // worker swarm-wide. DFS additionally prunes subtrees under
  // peer-claimed states (partitioned search); random walk keeps using
  // the private table for frontier control — bouncing off peer-claimed
  // states would trap the walk — and only the discovery *credit* is
  // global. The explorer does not own the store. Default nullptr: solo
  // runs take the exact same code path (and cost) as before.
  VisitedStore* shared_store = nullptr;
  // Stop-token-style cancellation, checked once per loop iteration. Set
  // by the swarm when any worker finds a violation so the rest halt
  // promptly instead of burning out their op budgets.
  const std::atomic<bool>* cancel = nullptr;
  // Stop once this many unique states are known (in the shared store if
  // one is attached, else locally). 0 = no target; run to the op budget.
  std::uint64_t target_unique_states = 0;
  // Work-stealing swarm support (DFS only). When set, this worker:
  //  * donates untried sibling branches while the frontier is hungry and
  //    publishes its remaining stack when the op budget cuts it short;
  //  * on local exhaustion, blocks in the frontier's termination
  //    protocol, steals an entry, replays its trail from the initial
  //    state on its own System, verifies the digest, and resumes DFS
  //    there instead of going idle.
  // Any Frontier implementation works: the in-process SharedFrontier or
  // a socket-backed net::RemoteFrontier (the explorer also polls
  // stopped() so a cross-host cancel reaches mid-search workers). The
  // explorer does not own the frontier. Requires shared_store (the
  // partitioned-search discipline is what makes stolen work disjoint).
  Frontier* shared_frontier = nullptr;
  // This worker's index, used for frontier stripe affinity.
  int worker_id = 0;
  // Random-walk + shared-store runs buffer this many locally-new digests
  // before one InsertBatch resolves their discovery credit (the walk's
  // control decisions only need the private table, so the shared insert
  // is credit-only and batchable — one round-trip per batch on a remote
  // store instead of one per state). DFS is unaffected: its shared
  // insert gates subtree descent, so it must stay synchronous. 1
  // effectively disables batching.
  std::size_t store_batch_size = 64;
  // Partial-order reduction (sleep sets over the System's static action
  // footprints, DESIGN.md §7.6): skip interleavings of provably
  // commuting actions, keeping the reachable state set and violation
  // set intact while expanding fewer transitions. Default on, but it
  // only *activates* for a solo exact DFS — it is gated off (flag
  // ignored) for random walk, bitstate mode, shared-store/frontier
  // swarms, and resumed runs, where the sleep-set upkeep is not yet
  // proven sound: a peer (or a previous run) may have slept transitions
  // this worker would need to re-awaken, and a bitstate filter cannot
  // key the sleep map. ExploreStats::por_active reports the outcome.
  bool por = true;
  // Crash-consistency exploration (DESIGN.md §7.7): after every applied
  // action, call System::CrashCheck() — enumerate the crash states the
  // in-flight writes permit, remount each, and validate persistence.
  // kEveryOp is exhaustive over the schedule; kOff costs nothing.
  CrashMode crash_mode = CrashMode::kOff;
};

class Explorer {
 public:
  Explorer(System& system, ExplorerOptions options);

  // Runs the search to completion (bounds reached, space exhausted, or
  // violation found) and returns the statistics.
  ExploreStats Run();

  // Snapshot of the visited set, feedable to a later run's
  // `resume_visited`. In bitstate (supertrace) mode the visited table is
  // unused, so there is nothing meaningful to checkpoint: returns
  // kENOTSUP instead of a misleading empty image.
  Result<Bytes> ExportCheckpoint() const;

  const VisitedTable& visited() const { return visited_; }

  // Ok unless `resume_visited` was set and its image failed to
  // deserialize; a rejected resume makes Run() a no-op that reports the
  // rejection instead of silently starting a fresh (mis-counted) search.
  Status resume_status() const { return resume_status_; }

 private:
  ExploreStats RunDfs();
  ExploreStats RunRandomWalk();

  // Outcome of recording one abstract state. Solo runs have
  // locally_new == globally_new; with a shared store a state can be new
  // to this worker but already claimed by a peer.
  struct RecordResult {
    bool locally_new = false;   // new to this worker's private table
    bool globally_new = false;  // this worker won the discovery credit
  };

  // Inserts into the active visited structures, charges resize/memory
  // costs, and updates unique/revisit stats (on the global outcome).
  RecordResult RecordState(const Md5Digest& digest);
  // True when shared-store discovery credit may be deferred and batched
  // (walk mode: the insert result steers no control decision).
  bool BufferSharedCredit() const;
  // Resolves the buffered digests' discovery credit with one
  // InsertBatch, updating unique/revisit stats and resize charges.
  void FlushCreditBuffer();
  void AccountMemory();
  void MaybeSample();
  // True when the search should stop early: cancelled by the swarm or
  // the unique-state target has been reached. Sets stats_.cancelled.
  bool ShouldStop();

  System& system_;
  ExplorerOptions options_;
  VisitedTable visited_;
  std::unique_ptr<ConcurrentBitstateFilter> bitstate_;
  Rng rng_;
  ExploreStats stats_;
  std::uint64_t stored_state_bytes_ = 0;
  Status resume_status_ = Status::Ok();
  // Locally-new digests whose shared-store credit is pending (walk mode
  // batching; see ExplorerOptions::store_batch_size).
  std::vector<Md5Digest> credit_buffer_;
  // Partial-order reduction state (solo exact DFS only; see
  // ExplorerOptions::por). sleep_map_ remembers, per first-visited
  // abstract state, which transitions that visit left asleep — the set
  // a later visit with a smaller sleep set must re-awaken (Godefroid's
  // state-matching rule). States whose first visit slept nothing carry
  // no entry.
  bool por_active_ = false;
  DependenceMatrix dependence_;
  std::unordered_map<Md5Digest, std::vector<std::uint32_t>> sleep_map_;
};

}  // namespace mcfs::mc
