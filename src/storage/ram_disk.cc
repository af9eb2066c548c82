#include "storage/ram_disk.h"

#include <utility>

namespace mcfs::storage {

RamDisk::RamDisk(std::string name, std::uint64_t size_bytes, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      image_(size_bytes) {}

RamDisk::RamDisk(std::string name, BlockImage image, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      image_(std::move(image)) {}

bool RamDisk::ConsumeInjectedError() {
  if (injected_errors_ == 0) return false;
  --injected_errors_;
  return true;
}

void RamDisk::Charge(std::uint64_t bytes) {
  if (clock_ == nullptr) return;
  SimClock::Nanos cost = options_.request_latency;
  if (options_.bandwidth_bytes_per_s > 0) {
    cost += bytes * 1'000'000'000ULL / options_.bandwidth_bytes_per_s;
  }
  clock_->Advance(cost);
}

void RamDisk::ChargeSnapshotPass(std::uint64_t bytes) const {
  if (clock_ == nullptr) return;
  SimClock::Nanos cost = options_.snapshot_base_latency;
  if (options_.snapshot_bandwidth_bytes_per_s > 0) {
    cost += bytes * 1'000'000'000ULL /
            options_.snapshot_bandwidth_bytes_per_s;
  }
  clock_->Advance(cost);
}

Status RamDisk::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  // A read is a scan plus the copy, so the two fail, count and charge
  // alike by construction.
  if (Status s = Scan(offset, out.size()); !s.ok()) return s;
  image_.Read(offset, out);
  return Status::Ok();
}

Status RamDisk::Scan(std::uint64_t offset, std::uint64_t n) {
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (!InBounds(offset, n)) return Errno::kEIO;
  ++stats_.reads;
  stats_.bytes_read += n;
  Charge(n);
  return Status::Ok();
}

Status RamDisk::Write(std::uint64_t offset, ByteView data) {
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (!InBounds(offset, data.size())) return Errno::kEIO;
  image_.Write(offset, data);
  ++stats_.writes;
  stats_.bytes_written += data.size();
  Charge(data.size());
  return Status::Ok();
}

Status RamDisk::Flush() {
  ++stats_.flushes;
  return Status::Ok();
}

DeviceSnapshot RamDisk::SnapshotContents() const {
  ChargeSnapshotPass(image_.size());
  return DeviceSnapshot{image_, {}};
}

Status RamDisk::RestoreContents(const DeviceSnapshot& contents) {
  if (contents.image.size() != image_.size() ||
      contents.recorder != nullptr) {
    return Errno::kEINVAL;
  }
  ChargeSnapshotPass(contents.size());
  image_ = contents.image;
  return Status::Ok();
}

RamDiskFactory RamDiskFactory::Brd(std::uint64_t uniform_size,
                                   SimClock* clock) {
  return RamDiskFactory(/*uniform=*/true, uniform_size, clock);
}

RamDiskFactory RamDiskFactory::Brd2(SimClock* clock) {
  return RamDiskFactory(/*uniform=*/false, 0, clock);
}

Result<BlockDevicePtr> RamDiskFactory::Create(const std::string& name,
                                              std::uint64_t size_bytes) {
  if (uniform_ && size_bytes != uniform_size_) return Errno::kEINVAL;
  return BlockDevicePtr(std::make_shared<RamDisk>(name, size_bytes, clock_));
}

}  // namespace mcfs::storage
