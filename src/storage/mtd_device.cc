#include "storage/mtd_device.h"

#include <cstring>
#include <utility>

namespace mcfs::storage {

MtdDevice::MtdDevice(std::string name, std::uint64_t size_bytes,
                     SimClock* clock, MtdOptions options)
    : MtdDevice(std::move(name), BlockImage(size_bytes, kErased), clock,
                options) {}

MtdDevice::MtdDevice(std::string name, BlockImage image, SimClock* clock,
                     MtdOptions options)
    : name_(std::move(name)),
      options_(options),
      clock_(clock),
      image_(std::move(image)),
      erase_counts_(image_.size() / options.erase_block_size, 0) {}

Status MtdDevice::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  if (!InBounds(offset, out.size())) return Errno::kEIO;
  image_.Read(offset, out);
  Charge((out.size() + 1023) / 1024 * options_.read_latency_per_kb);
  return Status::Ok();
}

Status MtdDevice::Program(std::uint64_t offset, ByteView data) {
  if (!InBounds(offset, data.size())) return Errno::kEIO;
  // Flash programming can only clear bits; flipping 0 -> 1 needs an erase.
  // The check reads the flash in place, block by block.
  std::uint8_t sets = 0;  // bits the data would have to set
  const std::uint8_t* src = data.data();
  ForEachCowSpan(offset, data.size(), [&](std::size_t index,
                                          std::size_t in_block,
                                          std::size_t len) {
    const std::uint8_t* flash = image_.Block(index).data() + in_block;
    for (std::size_t i = 0; i < len; ++i) sets |= src[i] & ~flash[i];
    src += len;
  });
  if (sets != 0) return Errno::kEIO;
  // With no bit to set, flash AND data is data itself: it is both what
  // gets written and the post-image the observer sees.
  image_.Write(offset, data);
  Charge((data.size() + 1023) / 1024 * options_.write_latency_per_kb);
  if (observer_ != nullptr) observer_->OnMtdWrite(offset, data);
  return Status::Ok();
}

Status MtdDevice::EraseBlock(std::uint32_t block_index) {
  if (block_index >= erase_counts_.size()) return Errno::kEINVAL;
  const std::uint64_t start =
      static_cast<std::uint64_t>(block_index) * options_.erase_block_size;
  // Whole image blocks of the fill go back to null.
  const Bytes erased(options_.erase_block_size, kErased);
  image_.Write(start, erased);
  ++erase_counts_[block_index];
  Charge(options_.erase_latency_per_block);
  if (observer_ != nullptr) observer_->OnMtdWrite(start, erased);
  return Status::Ok();
}

Status MtdDevice::Flush() {
  if (observer_ != nullptr) return observer_->OnMtdBarrier();
  return Status::Ok();
}

DeviceSnapshot MtdDevice::SnapshotContents() const {
  Charge((image_.size() + 1023) / 1024 * options_.read_latency_per_kb);
  return DeviceSnapshot{image_, {}};
}

Status MtdDevice::RestoreContents(const DeviceSnapshot& contents) {
  if (contents.image.size() != image_.size() ||
      contents.recorder != nullptr) {
    return Errno::kEINVAL;
  }
  Charge((contents.size() + 1023) / 1024 * options_.read_latency_per_kb);
  image_ = contents.image;
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
