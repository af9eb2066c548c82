#include "storage/latency_disk.h"

#include <utility>

namespace mcfs::storage {

// The profiles model the paper's measurement condition: a remount-heavy,
// QD1, sync-barrier-dominated small-I/O pattern (every metadata write is
// effectively flushed). Per-I/O costs are therefore "effective sync
// latencies", not datasheet numbers — calibrated so the Figure 2 ratios
// (HDD ~20x, SSD ~18x slower than RAM) come out of our I/O pattern.
LatencyProfile LatencyProfile::Hdd() {
  LatencyProfile p;
  p.base_latency = 1'300'000;            // 1.3 ms rotation + controller
  p.max_seek = 8'000'000;                // 8 ms full stroke
  p.bandwidth_bytes_per_s = 160'000'000; // 160 MB/s sequential
  p.flush_latency = 4'000'000;           // 4 ms cache flush
  return p;
}

LatencyProfile LatencyProfile::Ssd() {
  LatencyProfile p;
  p.base_latency = 2'000'000;            // 2 ms sync write w/ barrier
  p.max_seek = 0;
  p.bandwidth_bytes_per_s = 400'000'000; // 400 MB/s
  p.flush_latency = 1'500'000;           // 1.5 ms
  return p;
}

LatencyDisk::LatencyDisk(BlockDevicePtr inner, LatencyProfile profile,
                         SimClock* clock)
    : inner_(std::move(inner)), profile_(profile), clock_(clock) {}

void LatencyDisk::Charge(std::uint64_t offset, std::uint64_t bytes) {
  if (clock_ == nullptr) return;
  SimClock::Nanos cost = profile_.base_latency;
  if (profile_.max_seek > 0 && inner_->size_bytes() > 0) {
    const std::uint64_t distance =
        offset > head_position_ ? offset - head_position_
                                : head_position_ - offset;
    cost += static_cast<SimClock::Nanos>(
        static_cast<double>(profile_.max_seek) *
        (static_cast<double>(distance) /
         static_cast<double>(inner_->size_bytes())));
  }
  if (profile_.bandwidth_bytes_per_s > 0) {
    cost += bytes * 1'000'000'000ULL / profile_.bandwidth_bytes_per_s;
  }
  clock_->Advance(cost);
  head_position_ = offset + bytes;
}

Status LatencyDisk::Read(std::uint64_t offset, std::span<std::uint8_t> out) {
  Charge(offset, out.size());
  return inner_->Read(offset, out);
}

Status LatencyDisk::Scan(std::uint64_t offset, std::uint64_t n) {
  Charge(offset, n);
  return inner_->Scan(offset, n);
}

Status LatencyDisk::Write(std::uint64_t offset, ByteView data) {
  Charge(offset, data.size());
  return inner_->Write(offset, data);
}

Status LatencyDisk::Flush() {
  if (clock_ != nullptr) clock_->Advance(profile_.flush_latency);
  return inner_->Flush();
}

DeviceSnapshot LatencyDisk::SnapshotContents() const {
  if (clock_ != nullptr && profile_.bandwidth_bytes_per_s > 0) {
    clock_->Advance(profile_.base_latency +
                    inner_->size_bytes() * 1'000'000'000ULL /
                        profile_.bandwidth_bytes_per_s);
  }
  return inner_->SnapshotContents();
}

Status LatencyDisk::RestoreContents(const DeviceSnapshot& contents) {
  // A state restore rewrites the whole device image.
  if (Status s = inner_->RestoreContents(contents); !s.ok()) return s;
  Charge(0, contents.size());
  return Status::Ok();
}

}  // namespace mcfs::storage
