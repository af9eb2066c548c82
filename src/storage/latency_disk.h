// HDD/SSD latency decorators.
//
// Fig. 2 shows Ext2-vs-Ext4 model checking is ~20x slower on HDD and ~18x
// slower on SSD than on RAM disks. The slowdown is a pure latency effect:
// each exploration step performs dozens of small block I/Os (mount reads,
// metadata writes, snapshot copies). LatencyDisk wraps any BlockDevice and
// charges a positional latency model to the shared SimClock.
#pragma once

#include <cstdint>

#include "storage/block_device.h"

namespace mcfs::storage {

// Parameters of a simple rotating/solid-state latency model:
//   cost(op) = base + seek(distance) + bytes / bandwidth
struct LatencyProfile {
  SimClock::Nanos base_latency = 0;      // controller/queue overhead
  SimClock::Nanos max_seek = 0;          // full-stroke seek (HDD only)
  std::uint64_t bandwidth_bytes_per_s = 0;
  SimClock::Nanos flush_latency = 0;

  // ~7200rpm HDD: 4 ms average rotational+seek, ~160 MB/s sequential.
  static LatencyProfile Hdd();
  // SATA SSD: ~80 us access, ~500 MB/s.
  static LatencyProfile Ssd();
};

class LatencyDisk final : public BlockDevice {
 public:
  LatencyDisk(BlockDevicePtr inner, LatencyProfile profile, SimClock* clock);

  std::uint64_t size_bytes() const override { return inner_->size_bytes(); }
  std::uint32_t block_size() const override { return inner_->block_size(); }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out) override;
  Status Write(std::uint64_t offset, ByteView data) override;
  Status Flush() override;

  // State capture reads the whole device through the latency model (the
  // paper's Spin mmaps the backing device; saving a state touches it),
  // and a restore rewrites it; a restore the inner device rejects charges
  // nothing and leaves the head where it was.
  DeviceSnapshot SnapshotContents() const override;
  Status RestoreContents(const DeviceSnapshot& contents) override;

  const DeviceStats& stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

 private:
  void Charge(std::uint64_t offset, std::uint64_t bytes);

  BlockDevicePtr inner_;
  LatencyProfile profile_;
  SimClock* clock_;
  std::uint64_t head_position_ = 0;  // last accessed offset, for seek cost
};

}  // namespace mcfs::storage
