// RAM-backed block device ("brd2").
//
// Linux's brd driver requires all RAM disks to share one size; the paper
// patched it (renaming it brd2) so different file systems could get
// different minimum sizes (256 KB for ext2/ext4, 16 MB for XFS). Our
// RamDisk takes an arbitrary size per instance, which is the behavioural
// point of that patch; RamDiskFactory mirrors the driver-level "all disks
// from one module" structure and enforces/loosens the size rule.
//
// The contents are a BlockImage: a snapshot shares the disk's 4 KB
// blocks until one side writes them, the way B3's CrashMonkey keeps its
// base image on a copy-on-write RAM device (PAPERS.md).
#pragma once

#include <cstdint>

#include "storage/block_device.h"

namespace mcfs::storage {

struct RamDiskOptions {
  std::uint32_t block_size = 512;
  // Per-request block-layer overhead (bio submit + completion) plus a
  // bandwidth term. Calibrated so the paper's remount-per-op workload
  // lands at its measured ops/s (DESIGN.md §2, EXPERIMENTS.md).
  SimClock::Nanos request_latency = 25'000;           // 25 us
  std::uint64_t bandwidth_bytes_per_s = 2'000'000'000;
  // State capture/restore passes (Spin tracking the mmapped device):
  // a fixed per-state cost (stack push, table lookups) plus
  // a page-fault-and-hash rate well below memcpy speed.
  SimClock::Nanos snapshot_base_latency = 1'200'000;  // 1.2 ms
  std::uint64_t snapshot_bandwidth_bytes_per_s = 700'000'000;
};

class RamDisk final : public BlockDevice {
 public:
  // `clock` may be null (no time accounting, e.g. in unit tests).
  RamDisk(std::string name, std::uint64_t size_bytes, SimClock* clock,
          RamDiskOptions options = {});
  // Takes `image` as its contents, sharing its blocks (crash recovery
  // probes are built this way).
  RamDisk(std::string name, BlockImage image, SimClock* clock,
          RamDiskOptions options = {});

  std::uint64_t size_bytes() const override { return image_.size(); }
  std::uint32_t block_size() const override { return options_.block_size; }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out) override;
  // Fails, counts and charges without touching a block.
  Status Scan(std::uint64_t offset, std::uint64_t n) override;
  Status Write(std::uint64_t offset, ByteView data) override;
  Status Flush() override;

  // Both charge one full-device snapshot pass, whatever they share.
  DeviceSnapshot SnapshotContents() const override;
  Status RestoreContents(const DeviceSnapshot& contents) override;

  const DeviceStats& stats() const override { return stats_; }
  std::string name() const override { return name_; }

  // Injects an I/O error on the next `count` operations (failure testing).
  void InjectIoErrors(std::uint32_t count) { injected_errors_ = count; }

 private:
  bool ConsumeInjectedError();
  bool InBounds(std::uint64_t offset, std::uint64_t n) const {
    return offset <= image_.size() && n <= image_.size() - offset;
  }
  void Charge(std::uint64_t bytes);
  void ChargeSnapshotPass(std::uint64_t bytes) const;

  std::string name_;
  RamDiskOptions options_;
  SimClock* clock_;
  BlockImage image_;
  DeviceStats stats_;
  std::uint32_t injected_errors_ = 0;
};

// Mirrors the brd/brd2 driver distinction: the stock driver hands out
// disks of one fixed size; the patched one allows per-disk sizes.
class RamDiskFactory {
 public:
  // Stock brd: every disk has `uniform_size` bytes.
  static RamDiskFactory Brd(std::uint64_t uniform_size, SimClock* clock);
  // Patched brd2: per-disk sizes allowed.
  static RamDiskFactory Brd2(SimClock* clock);

  // For brd, `size_bytes` must equal the uniform size (EINVAL otherwise).
  Result<BlockDevicePtr> Create(const std::string& name,
                                std::uint64_t size_bytes);

 private:
  RamDiskFactory(bool uniform, std::uint64_t uniform_size, SimClock* clock)
      : uniform_(uniform), uniform_size_(uniform_size), clock_(clock) {}

  bool uniform_;
  std::uint64_t uniform_size_;
  SimClock* clock_;
};

}  // namespace mcfs::storage
