// Whole-VM snapshotting (paper §5, "Virtual-machine snapshotting").
//
// A hypervisor can checkpoint/restore everything — kernel caches, user
// processes, disks — so it sidesteps the cache-incoherency problem
// entirely. But it is slow: the paper cites LightVM's ~30 ms checkpoint
// and ~20 ms restore for a *trivial* unikernel, which capped MCFS at
// 20-30 operations/s. VmSnapshotter charges those costs (plus a per-MB
// term for non-trivial images) so the snapshot-strategy bench reproduces
// the ceiling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace mcfs::snapshot {

struct VmOptions {
  // LightVM's published numbers for a trivial VM (paper §5).
  SimClock::Nanos checkpoint_fixed = 30'000'000;  // 30 ms
  SimClock::Nanos restore_fixed = 20'000'000;     // 20 ms
  SimClock::Nanos cost_per_mb = 1'000'000;        // 1 ms/MB of image
};

// A "machine" is whatever set of components the caller registers: each
// contributes a capture function. Snapshots are atomic across all
// components — the property process- and FS-level snapshotting lack.
class VmSnapshotter {
 public:
  // One component's part of a snapshot: its size, which prices the
  // capture and the restore, and a closure that puts the component back
  // as captured. Restores are non-consuming, so it may run many times.
  struct Image {
    std::uint64_t bytes = 0;
    std::function<void()> restore;
  };
  using CaptureFn = std::function<Image()>;

  explicit VmSnapshotter(SimClock* clock, VmOptions options = {});

  void RegisterComponent(std::string name, CaptureFn capture);
  // A component whose image is a byte string.
  void RegisterComponent(std::string name, std::function<Bytes()> capture,
                         std::function<void(ByteView)> restore);

  Status Checkpoint(std::uint64_t key);
  Status Restore(std::uint64_t key);  // non-consuming
  Status Discard(std::uint64_t key);

  std::uint64_t snapshot_count() const { return snapshots_.size(); }
  std::uint64_t total_bytes() const;

 private:
  struct Component {
    std::string name;
    CaptureFn capture;
  };

  void Charge(SimClock::Nanos ns) {
    if (clock_ != nullptr) clock_->Advance(ns);
  }

  SimClock* clock_;
  VmOptions options_;
  std::vector<Component> components_;
  std::map<std::uint64_t, std::vector<Image>> snapshots_;
};

}  // namespace mcfs::snapshot
