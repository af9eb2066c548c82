#include "storage/mtd_device.h"

#include <cstring>
#include <utility>

namespace mcfs::storage {

MtdDevice::MtdDevice(std::string name, std::uint64_t size_bytes,
                     SimClock* clock, MtdOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(size_bytes, 0xff),
      erase_counts_(size_bytes / options.erase_block_size, 0) {}

MtdDevice::MtdDevice(std::string name, Bytes image, SimClock* clock,
                     MtdOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      data_(std::move(image)),
      erase_counts_(data_.size() / options.erase_block_size, 0) {}

Status MtdDevice::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  if (offset + out.size() > data_.size()) return Errno::kEIO;
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + offset, out.size());
  }
  Charge((out.size() + 1023) / 1024 * options_.read_latency_per_kb);
  return Status::Ok();
}

Status MtdDevice::Program(std::uint64_t offset, ByteView data) {
  if (offset + data.size() > data_.size()) return Errno::kEIO;
  // Flash programming can only clear bits; flipping 0 -> 1 needs an erase.
  for (std::size_t i = 0; i < data.size(); ++i) {
    if ((data[i] & ~data_[offset + i]) != 0) return Errno::kEIO;
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    data_[offset + i] &= data[i];
  }
  Charge((data.size() + 1023) / 1024 * options_.write_latency_per_kb);
  if (observer_ != nullptr) {
    observer_->OnMtdWrite(
        offset, ByteView(data_.data() + offset, data.size()));
  }
  return Status::Ok();
}

Status MtdDevice::EraseBlock(std::uint32_t block_index) {
  if (block_index >= erase_counts_.size()) return Errno::kEINVAL;
  const std::uint64_t start =
      static_cast<std::uint64_t>(block_index) * options_.erase_block_size;
  std::memset(data_.data() + start, 0xff, options_.erase_block_size);
  ++erase_counts_[block_index];
  Charge(options_.erase_latency_per_block);
  if (observer_ != nullptr) {
    observer_->OnMtdWrite(
        start, ByteView(data_.data() + start, options_.erase_block_size));
  }
  return Status::Ok();
}

Status MtdDevice::Flush() {
  if (observer_ != nullptr) return observer_->OnMtdBarrier();
  return Status::Ok();
}

Bytes MtdDevice::SnapshotContents() const {
  Charge((data_.size() + 1023) / 1024 * options_.read_latency_per_kb);
  return data_;
}

Status MtdDevice::RestoreContents(ByteView contents) {
  if (contents.size() != data_.size()) return Errno::kEINVAL;
  Charge((contents.size() + 1023) / 1024 * options_.read_latency_per_kb);
  data_.assign(contents.begin(), contents.end());
  return Status::Ok();
}

MtdBlockShim::MtdBlockShim(std::shared_ptr<MtdDevice> mtd)
    : mtd_(std::move(mtd)) {}

Status MtdBlockShim::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  Status s = mtd_->Read(offset, out);
  if (s.ok()) {
    ++stats_.reads;
    stats_.bytes_read += out.size();
  }
  return s;
}

Status MtdBlockShim::Write(std::uint64_t offset, ByteView data) {
  // Erase-modify-program each touched erase block.
  const std::uint32_t ebs = mtd_->erase_block_size();
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::uint32_t block = static_cast<std::uint32_t>(pos / ebs);
    const std::uint64_t block_start = static_cast<std::uint64_t>(block) * ebs;
    const std::uint64_t in_block = pos - block_start;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(ebs - in_block, data.size() - consumed));

    Bytes whole(ebs);
    if (Status s = mtd_->Read(block_start, whole); !s.ok()) return s;
    std::memcpy(whole.data() + in_block, data.data() + consumed, take);
    if (Status s = mtd_->EraseBlock(block); !s.ok()) return s;
    if (Status s = mtd_->Program(block_start, whole); !s.ok()) return s;

    pos += take;
    consumed += take;
  }
  ++stats_.writes;
  stats_.bytes_written += data.size();
  return Status::Ok();
}

}  // namespace mcfs::storage
