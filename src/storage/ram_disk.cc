#include "storage/ram_disk.h"

#include <cstring>
#include <utility>

namespace mcfs::storage {

RamDisk::RamDisk(std::string name, std::uint64_t size_bytes, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(size_bytes, 0) {}

RamDisk::RamDisk(std::string name, Bytes image, SimClock* clock,
                 RamDiskOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(std::move(image)) {}

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
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (offset + out.size() > data_.size()) return Errno::kEIO;
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + offset, out.size());
  }
  ++stats_.reads;
  stats_.bytes_read += out.size();
  Charge(out.size());
  return Status::Ok();
}

Status RamDisk::Write(std::uint64_t offset, ByteView data) {
  if (ConsumeInjectedError()) return Errno::kEIO;
  if (offset + data.size() > data_.size()) return Errno::kEIO;
  if (!data.empty()) {
    std::memcpy(data_.data() + offset, data.data(), data.size());
  }
  ++stats_.writes;
  stats_.bytes_written += data.size();
  Charge(data.size());
  return Status::Ok();
}

Status RamDisk::Flush() {
  ++stats_.flushes;
  return Status::Ok();
}

Bytes RamDisk::SnapshotContents() const {
  ChargeSnapshotPass(data_.size());
  return data_;
}

Status RamDisk::RestoreContents(ByteView contents) {
  if (contents.size() != data_.size()) return Errno::kEINVAL;
  ChargeSnapshotPass(contents.size());
  data_.assign(contents.begin(), contents.end());
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
