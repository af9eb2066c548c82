// Block device abstraction.
//
// The paper backs kernel file systems with Linux RAM block devices (a
// patched driver, "brd2", allowing per-device sizes), and evaluates the
// same workload on HDD and SSD backends to show that model checking is
// infeasible unless the backend is RAM (Fig. 2). Devices here charge
// simulated time to a shared SimClock so that those latency effects are
// reproduced deterministically (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "storage/block_image.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/sim_clock.h"

namespace mcfs::storage {

// What BlockDevice::SnapshotContents returns and RestoreContents takes:
// the device contents as a shared image (block_image.h), plus whatever
// a decorating device keeps beside them — CrashableDisk's digest table
// and journal; empty for every other device. Copying one copies a block
// pointer vector, never the blocks.
struct DeviceSnapshot {
  BlockImage image;
  Bytes bookkeeping;

  // The bytes this snapshot stands for, however many blocks it shares:
  // the whole image plus the bookkeeping. State-size accounting (the
  // memory model's simulated swap) charges this, as the paper's Spin
  // stores a full copy of the device per state.
  std::uint64_t size() const { return image.size() + bookkeeping.size(); }
};

// Counters a device maintains for benches and tests.
struct DeviceStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t flushes = 0;
};

// A fixed-geometry block device. Offsets/lengths are in bytes but
// implementations may round internally to their block size. All calls are
// synchronous; latency is charged to the SimClock passed at construction.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual std::uint64_t size_bytes() const = 0;
  virtual std::uint32_t block_size() const = 0;

  // Reads exactly out.size() bytes at offset. Fails with EIO past the end.
  virtual Status Read(std::uint64_t offset, std::span<std::uint8_t> out) = 0;

  // Writes exactly data.size() bytes at offset.
  virtual Status Write(std::uint64_t offset, ByteView data) = 0;

  // Persists outstanding writes (a no-op for RAM, seek-free for others).
  virtual Status Flush() = 0;

  // Snapshot of the full device contents — this is how the model checker
  // tracks persistent state for block-based file systems (the paper mmaps
  // the backing device into Spin's address space for the same purpose).
  // The simulated charge is a full-device pass; the host shares blocks.
  virtual DeviceSnapshot SnapshotContents() const = 0;

  // Restores a snapshot previously taken with SnapshotContents(); one of
  // the wrong size, or not this kind of device's, returns EINVAL and
  // changes nothing. Note that this bypasses any file-system cache above
  // the device: that is exactly the cache-incoherency hazard of paper
  // §3.2.
  virtual Status RestoreContents(const DeviceSnapshot& contents) = 0;

  virtual const DeviceStats& stats() const = 0;

  virtual std::string name() const = 0;
};

using BlockDevicePtr = std::shared_ptr<BlockDevice>;

}  // namespace mcfs::storage
