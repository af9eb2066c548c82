// MTD (Memory Technology Device) simulation for JFFS2.
//
// JFFS2 cannot mount a regular block device; it needs an MTD character
// device with erase-block semantics (erase before rewrite, whole erase
// blocks at a time). The paper loads `mtdram` to create a virtual MTD in
// RAM and `mtdblock` to expose a block interface that Spin can mmap. We
// reproduce both: MtdDevice is the flash-semantics device; MtdBlockShim
// adapts it to the BlockDevice interface (read-modify-erase-write).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.h"

namespace mcfs::storage {

// Observer for raw flash mutations. JFFS2 bypasses the block shim and
// programs the MTD directly, so a crash-state recorder (CrashableDisk)
// cannot see those writes through the BlockDevice interface; it attaches
// here instead. Notifications carry the post-image of the touched range.
class MtdWriteObserver {
 public:
  virtual ~MtdWriteObserver() = default;
  virtual void OnMtdWrite(std::uint64_t offset, ByteView after) = 0;
  // A write barrier (fsync reaching the flash). Returning non-OK models
  // an injected barrier failure: nothing is committed.
  virtual Status OnMtdBarrier() = 0;
};

struct MtdOptions {
  std::uint32_t erase_block_size = 16 * 1024;
  std::uint32_t write_granularity = 4;   // NOR-style word writes
  SimClock::Nanos read_latency_per_kb = 2'000;
  SimClock::Nanos write_latency_per_kb = 50'000;    // flash program
  SimClock::Nanos erase_latency_per_block = 2'000'000;  // block erase
};

// Raw flash with erase-block discipline: bits can only be cleared by
// writes (1 -> 0); setting them back requires erasing a whole block to 0xff.
//
// The flash is a BlockImage on a 0xff fill, so erased 4 KB blocks hold no
// memory, and snapshots, restores and recovery probes share blocks
// instead of copying the whole flash.
class MtdDevice {
 public:
  // What erased flash reads as.
  static constexpr std::uint8_t kErased = 0xff;

  // Fully erased flash of `size_bytes`.
  MtdDevice(std::string name, std::uint64_t size_bytes, SimClock* clock,
            MtdOptions options = {});
  // Takes `image` as the flash contents, sharing its blocks (crash
  // recovery probes are built this way).
  MtdDevice(std::string name, BlockImage image, SimClock* clock,
            MtdOptions options = {});

  std::uint64_t size_bytes() const { return image_.size(); }
  std::uint32_t erase_block_size() const { return options_.erase_block_size; }
  std::uint32_t erase_block_count() const {
    return static_cast<std::uint32_t>(image_.size() /
                                      options_.erase_block_size);
  }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out);

  // Programs bytes: each flash byte becomes itself AND the new one.
  // Returns EIO, changing nothing, if that would need to flip any 0 -> 1
  // (i.e., the region was not erased first).
  Status Program(std::uint64_t offset, ByteView data);

  // Erases erase-block `block_index` back to 0xff, freeing its blocks.
  Status EraseBlock(std::uint32_t block_index);

  // Write barrier. With no observer attached this is a no-op (RAM-backed
  // flash has nothing to drain); with one, the observer decides — a
  // crash-state recorder commits its in-flight journal here.
  Status Flush();

  // At most one observer; pass nullptr to detach.
  void set_write_observer(MtdWriteObserver* observer) {
    observer_ = observer;
  }

  // State capture passes read/rewrite the whole flash through the
  // mtdblock view (the paper mmaps it, §4); charged at read rate. Both
  // share the image's blocks.
  DeviceSnapshot SnapshotContents() const;
  Status RestoreContents(const DeviceSnapshot& contents);

  // The flash itself, read without a charge: a recovery probe's log
  // replay compares it with the image it replayed before (a probe device
  // has no clock, so there is no charge to skip).
  const BlockImage& image() const { return image_; }

  std::uint64_t erase_count(std::uint32_t block_index) const {
    return erase_counts_.at(block_index);
  }

  std::string name() const { return name_; }

 private:
  void Charge(SimClock::Nanos ns) const {
    if (clock_ != nullptr) clock_->Advance(ns);
  }
  bool InBounds(std::uint64_t offset, std::uint64_t n) const {
    return offset <= image_.size() && n <= image_.size() - offset;
  }

  std::string name_;
  MtdOptions options_;
  SimClock* clock_;
  BlockImage image_;
  std::vector<std::uint64_t> erase_counts_;
  MtdWriteObserver* observer_ = nullptr;
};

// mtdblock-style adapter: exposes the MTD as a BlockDevice so the model
// checker can snapshot/restore it like any block device. Writes perform
// erase-modify-program on the containing erase block.
class MtdBlockShim final : public BlockDevice {
 public:
  explicit MtdBlockShim(std::shared_ptr<MtdDevice> mtd);

  std::uint64_t size_bytes() const override { return mtd_->size_bytes(); }
  std::uint32_t block_size() const override {
    return mtd_->erase_block_size();
  }

  Status Read(std::uint64_t offset, std::span<std::uint8_t> out) override;
  Status Write(std::uint64_t offset, ByteView data) override;
  // A real barrier: forwards to the MTD so an attached crash-state
  // recorder sees fsync-driven flushes (a silent OK here would make
  // every un-flushed write look durable and crash enumeration unsound).
  Status Flush() override {
    ++stats_.flushes;
    return mtd_->Flush();
  }

  DeviceSnapshot SnapshotContents() const override {
    return mtd_->SnapshotContents();
  }
  Status RestoreContents(const DeviceSnapshot& contents) override {
    return mtd_->RestoreContents(contents);
  }

  const DeviceStats& stats() const override { return stats_; }
  std::string name() const override { return mtd_->name() + "-block"; }

  MtdDevice& mtd() { return *mtd_; }

 private:
  std::shared_ptr<MtdDevice> mtd_;
  DeviceStats stats_;
};

}  // namespace mcfs::storage
