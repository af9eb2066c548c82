// PersistenceOracle + CrashConsistencyChecker: the recovered-state half
// of the crash-exploration mode (DESIGN.md §7.7).
//
// The oracle follows the BilbyFs-style persistence contract (PAPERS.md):
//   * everything durable at the last successful sync point must survive a
//     crash *exactly* (same type, attributes, content);
//   * effects newer than the sync point may be atomically absent — the
//     recovered path may match any state it passed through since the
//     durable one — but must never be half-applied (a content matching no
//     observed version is a torn write);
//   * rename is atomic: the file lives at the old name or the new name,
//     never both and never neither;
//   * no phantom paths: recovery must not invent files.
//
// It learns what "durable" and "passed through" mean by observing the
// executed operations: TouchedPaths() (the incremental-abstraction
// machinery) says which paths an op may have changed, and a successful
// fsync promotes every path's latest observed version to the durable
// floor (both jffs2f and ext2f/ext4f implement fsync as a whole-device
// barrier, so one sync point covers the tree).
//
// CrashConsistencyChecker glues the oracle to a CrashableDisk and a
// FsUnderTest: enumerate crash states, mount each image on a fresh
// recovery probe (exercising jffs2f log replay / ext4f journal
// recovery), and validate the recovered tree against the oracle.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"
#include "storage/crashable_disk.h"

namespace mcfs::core {

struct PersistenceOracleOptions {
  // Paths excluded from tracking and from the phantom check (the
  // free-space fill file, lost+found, ...). Exact matches only.
  std::vector<std::string> exempt_paths;
};

class PersistenceOracle {
 public:
  explicit PersistenceOracle(PersistenceOracleOptions options = {});

  // One observed state of a path. Timestamps are deliberately absent
  // (the abstraction excludes them too, paper §3.3) and directory sizes
  // are not compared (entry-count vs block-rounded, §3.4).
  struct PathVersion {
    bool exists = false;
    fs::FileType type = fs::FileType::kRegular;
    fs::Mode mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t size = 0;
    std::uint64_t payload = 0;  // content / symlink-target digest
  };

  // Baseline: every path in the live tree is durable (the harness
  // commits the post-mkfs/equalization image before exploration starts).
  Status SeedFromTree(fs::FileSystem& live);

  // Record the effect of one executed operation by re-reading the live
  // tree. A successful fsync advances the durable floor instead.
  Status ObserveOp(fs::FileSystem& live, const Operation& op,
                   const OpOutcome& outcome);

  // Walk a recovered (mounted) file system and check it against the
  // contract. Returns an empty string when legal, else a description of
  // the first violation. A walk failure (unreadable recovered file) is
  // itself a violation.
  std::string ValidateRecovered(fs::FileSystem& recovered);

  // Snapshots of the oracle, so explorer rollbacks rewind it too.
  void Save(std::uint64_t key);
  Status Restore(std::uint64_t key);
  void Discard(std::uint64_t key);

 private:
  struct History {
    std::vector<PathVersion> versions;
    // Index of the version that was current at the last sync point.
    std::size_t durable_floor = 0;
    bool has_durable = false;
  };
  struct RenameEvent {
    std::string from;
    std::string to;
    PathVersion from_before;   // `from`'s last version before the rename
    bool to_existed = false;   // destination overwrote an existing path
    bool from_was_durable = false;
    // Version counts before the rename's own captures were appended —
    // "no versions past these" means no later op touched the path.
    std::size_t from_versions = 0;
    std::size_t to_versions = 0;
  };
  struct State {
    std::map<std::string, History> paths;
    std::vector<RenameEvent> renames;  // since the last sync point
  };

  bool Exempt(const std::string& path) const;
  Status CaptureTree(fs::FileSystem& fs,
                     std::map<std::string, PathVersion>& out);
  Status RecaptureAndDiff(fs::FileSystem& live);
  void MarkAllDurable();

  PersistenceOracleOptions options_;
  State state_;
  std::map<std::uint64_t, State> snapshots_;
};

struct CrashCheckOptions {
  bool enabled = false;
  storage::CrashStateOptions states;
  PersistenceOracleOptions oracle;
};

class CrashConsistencyChecker {
 public:
  // `fut` must outlive the checker and have a crash-recording device.
  CrashConsistencyChecker(FsUnderTest* fut, CrashCheckOptions options);

  // Commits the current device image as the durable baseline and seeds
  // the oracle from the live tree. Call once, before exploration.
  Status SeedInitial();

  Status ObserveOp(const Operation& op, const OpOutcome& outcome);

  // Enumerate crash states, remount each on a fresh probe, validate.
  // error  = infrastructure failure; "" = every crash state recovered
  // legally; otherwise the violation description.
  Result<std::string> Check();

  void Save(std::uint64_t key) { oracle_.Save(key); }
  Status Restore(std::uint64_t key) { return oracle_.Restore(key); }
  void Discard(std::uint64_t key) { oracle_.Discard(key); }

  std::uint64_t states_checked() const { return states_checked_; }

 private:
  FsUnderTest* fut_;
  CrashCheckOptions options_;
  PersistenceOracle oracle_;
  std::uint64_t states_checked_ = 0;
};

}  // namespace mcfs::core
