#include "snapshot/vm.h"

#include <utility>

namespace mcfs::snapshot {

VmSnapshotter::VmSnapshotter(SimClock* clock, VmOptions options)
    : clock_(clock), options_(options) {}

void VmSnapshotter::RegisterComponent(std::string name, CaptureFn capture) {
  components_.push_back(Component{std::move(name), std::move(capture)});
}

void VmSnapshotter::RegisterComponent(
    std::string name, std::function<Bytes()> capture,
    std::function<void(ByteView)> restore) {
  RegisterComponent(std::move(name), [capture = std::move(capture),
                                      restore = std::move(restore)]() {
    Bytes image = capture();
    const std::uint64_t bytes = image.size();
    return Image{bytes, [restore, image = std::move(image)]() {
                   restore(image);
                 }};
  });
}

Status VmSnapshotter::Checkpoint(std::uint64_t key) {
  std::vector<Image> images;
  images.reserve(components_.size());
  std::uint64_t total = 0;
  for (const auto& component : components_) {
    images.push_back(component.capture());
    total += images.back().bytes;
  }
  Charge(options_.checkpoint_fixed +
         (total + (1 << 20) - 1) / (1 << 20) * options_.cost_per_mb);
  snapshots_[key] = std::move(images);
  return Status::Ok();
}

Status VmSnapshotter::Restore(std::uint64_t key) {
  auto it = snapshots_.find(key);
  if (it == snapshots_.end()) return Errno::kENOENT;
  if (it->second.size() != components_.size()) return Errno::kEINVAL;
  std::uint64_t total = 0;
  for (const Image& image : it->second) {
    image.restore();
    total += image.bytes;
  }
  Charge(options_.restore_fixed +
         (total + (1 << 20) - 1) / (1 << 20) * options_.cost_per_mb);
  return Status::Ok();
}

Status VmSnapshotter::Discard(std::uint64_t key) {
  return snapshots_.erase(key) == 1 ? Status::Ok() : Status(Errno::kENOENT);
}

std::uint64_t VmSnapshotter::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [key, images] : snapshots_) {
    for (const Image& image : images) total += image.bytes;
  }
  return total;
}

}  // namespace mcfs::snapshot
