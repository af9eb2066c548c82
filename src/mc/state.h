// The model checker's view of a system under test.
//
// MCFS uses Spin; this library implements the subset of Spin's machinery
// the paper relies on (DESIGN.md §2): nondeterministic choice over a
// bounded action set, abstract-state matching (c_track with a hashed
// abstract state, §3.3), and concrete-state save/restore for backtracking.
//
// A System is the bridge: the mcfs syscall engine implements it over a
// pair of file systems, but the checker itself is domain-agnostic —
// anything with bounded actions, an abstraction function, and
// checkpoint/restore can be explored (the paper's §7 notes the approach
// generalizes beyond file systems).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/md5.h"
#include "util/result.h"

namespace mcfs::mc {

// Identifier of a saved concrete state (System-internal meaning).
using SnapshotId = std::uint64_t;

// A static, outcome-independent over-approximation of the state an
// action can read or write, expressed as absolute '/'-separated paths.
// This is the raw material of the partial-order-reduction dependence
// relation (DESIGN.md §7.6): two actions whose footprints are disjoint
// (no shared path, no ancestor/descendant pair across the two sets)
// commute, so the explorer needs only one interleaving of them.
//
// Soundness contract: the footprint must cover every path whose hashed
// node state the action could change OR whose state the action's
// observable outcome depends on, in ANY reachable state — including
// through aliasing (hard links). Under-approximating here silently
// drops interleavings; over-approximating only costs reduction.
struct ActionFootprint {
  std::vector<std::string> paths;
  // The action never mutates hashed state (its outcome may still depend
  // on `paths`). Two read-only actions always commute, whatever their
  // footprints: neither changes the state the other's outcome reads.
  bool reads_only = false;
  // No bounded footprint exists (e.g. a whole-state restore): the
  // action is dependent on everything, including itself.
  bool full = false;
};

class System {
 public:
  virtual ~System() = default;

  // Number of enabled actions in the current state. MCFS's bounded
  // parameter pools make this a fixed, enumerable set.
  virtual std::size_t ActionCount() const = 0;

  // Human-readable action description (for trails and logs).
  virtual std::string ActionName(std::size_t action) const = 0;

  // Executes action `action` in the current state. Returns EIO-class
  // errors only for checker-infrastructure failures; file-system errors
  // (ENOENT, ENOSPC, ...) are part of the explored behaviour, not
  // failures. After the call, check violation_detected().
  virtual Status ApplyAction(std::size_t action) = 0;

  // True if the last ApplyAction uncovered a discrepancy between the
  // file systems under test.
  virtual bool violation_detected() const = 0;
  virtual std::string violation_report() const = 0;

  // The abstraction function (paper Algorithm 1): a 128-bit digest of the
  // current state, excluding noisy attributes.
  virtual Md5Digest AbstractHash() = 0;

  // Concrete-state checkpointing for backtracking. RestoreConcrete must
  // be NON-consuming: the explorer restores the same snapshot once per
  // remaining sibling during DFS. (The paper's ioctl_RESTORE consumed its
  // snapshot, §5; VeriFS's handle API restores without consuming, so the
  // syscall engine meets this contract directly.) DiscardConcrete
  // releases the snapshot.
  virtual Result<SnapshotId> SaveConcrete() = 0;
  virtual Status RestoreConcrete(SnapshotId id) = 0;
  virtual Status DiscardConcrete(SnapshotId id) = 0;

  // Bytes held by one saved concrete state (for the memory model).
  virtual std::uint64_t ConcreteStateBytes() const = 0;

  // Crash-consistency hook (ExplorerOptions::crash_mode): enumerate the
  // crash states reachable from the current concrete state, remount and
  // validate each. EIO-class errors are infrastructure failures; a
  // persistence violation is reported through violation_detected() like
  // any other discrepancy. Default: inert, for Systems without a
  // crashable device.
  virtual Status CrashCheck() { return Status::Ok(); }

  // Partial-order-reduction support. The default — a full footprint —
  // makes every action dependent on every other, which turns POR into a
  // no-op for Systems that do not (or cannot soundly) describe their
  // actions' footprints.
  virtual ActionFootprint StaticActionFootprint(std::size_t /*action*/) const {
    ActionFootprint fp;
    fp.full = true;
    return fp;
  }
};

// Counters every exploration produces (benches print these).
struct ExploreStats {
  std::uint64_t operations = 0;       // actions applied (incl. revisits)
  std::uint64_t unique_states = 0;    // abstract states inserted
  std::uint64_t revisits = 0;         // matched an already-seen state
  std::uint64_t backtracks = 0;       // concrete restores performed
  std::uint64_t snapshots_taken = 0;
  std::uint64_t max_depth_reached = 0;
  // Work-stealing (cooperative swarm with a SharedFrontier attached).
  std::uint64_t steals = 0;             // frontier entries adopted
  std::uint64_t steal_replay_ops = 0;   // actions replayed to reach them
  std::uint64_t steal_digest_mismatches = 0;  // replays that failed verify
  std::uint64_t frontier_published = 0;       // entries this worker donated
  double steal_wait_seconds = 0;        // wall time blocked on the frontier
  // Partial-order reduction (sleep sets over the static dependence
  // relation, DESIGN.md §7.6). por_active records whether the run
  // actually reduced (the flag can be on but gated off — bitstate,
  // shared store/frontier, resume); por_pruned_transitions counts
  // enabled transitions skipped at expanded nodes because a commuting
  // representative was explored elsewhere; por_sleep_awakened counts
  // revisited states re-expanded because they were reached with a
  // smaller sleep set than their first visit.
  bool por_active = false;
  std::uint64_t por_pruned_transitions = 0;
  std::uint64_t por_sleep_awakened = 0;
  // Search halted early: a swarm peer raised the cancel flag or the
  // unique-state target was reached (neither is a violation here).
  bool cancelled = false;
  bool violation_found = false;
  std::string violation_report;
  std::vector<std::string> violation_trail;  // action names from the root
  double sim_seconds = 0;   // simulated time consumed
  double wall_seconds = 0;  // host time consumed
};

}  // namespace mcfs::mc
