#include "storage/crashable_disk.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <utility>

#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::storage {
namespace {

constexpr std::size_t kChunkBytes = CrashableDisk::kChunkBytes;
static_assert(kChunkBytes == Md5::kChunkBytes);
constexpr std::size_t kDigestBytes = sizeof(Md5Digest::bytes);

std::size_t ChunkCount(std::size_t image_bytes) {
  return (image_bytes + kChunkBytes - 1) / kChunkBytes;
}

// Appends the chunks [offset, offset + len) overlaps.
void AddTouchedChunks(std::uint64_t offset, std::size_t len,
                      std::vector<std::size_t>* chunks) {
  if (len == 0) return;
  for (std::size_t c = offset / kChunkBytes;
       c <= (offset + len - 1) / kChunkBytes; ++c) {
    chunks->push_back(c);
  }
}

void SortUnique(std::vector<std::size_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void StoreDigest(Bytes* table, std::size_t chunk, const Md5Digest& digest) {
  std::memcpy(table->data() + chunk * kDigestBytes, digest.bytes.data(),
              kDigestBytes);
}

// Re-hashes `chunks` (ascending) of `image` into `table`, in one
// Md5::HashChunks call. Only an image's last chunk can be short, and that
// one is hashed on its own.
void HashChunksInto(const BlockImage& image,
                    std::span<const std::size_t> chunks, Bytes* table) {
  if (!chunks.empty() && image.Block(chunks.back()).size() < kChunkBytes) {
    StoreDigest(table, chunks.back(), Md5::Hash(image.Block(chunks.back())));
    chunks = chunks.first(chunks.size() - 1);
  }
  std::vector<const std::uint8_t*> blocks(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    blocks[i] = image.Block(chunks[i]).data();
  }
  std::vector<Md5Digest> digests(chunks.size());
  Md5::HashChunks(blocks, digests.data());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    StoreDigest(table, chunks[i], digests[i]);
  }
}

Bytes ChunkTable(const BlockImage& image) {
  Bytes table(ChunkCount(image.size()) * kDigestBytes);
  std::vector<std::size_t> all(ChunkCount(image.size()));
  std::iota(all.begin(), all.end(), std::size_t{0});
  HashChunksInto(image, all, &table);
  return table;
}

}  // namespace

// Defined here, where the recorder state is a complete type.
std::uint64_t DeviceSnapshot::size() const {
  std::uint64_t total = image.size();
  if (recorder != nullptr) {
    total += recorder->chunk_table.size();
    for (const CrashRecorderState::Write& rec : recorder->journal) {
      total += sizeof(rec.offset) + rec.after.size();
    }
  }
  return total;
}

std::string CrashState::Describe() const {
  std::string out = "applied " + std::to_string(applied.size()) + "/" +
                    std::to_string(pending_total) + " in-flight writes {";
  for (std::size_t i = 0; i < applied.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(applied[i]);
  }
  out += "}";
  return out;
}

CrashableDisk::CrashableDisk(BlockDevicePtr inner)
    : inner_(std::move(inner)), durable_(inner_->SnapshotContents().image) {
  auto state = std::make_shared<CrashRecorderState>();
  state->chunk_table = ChunkTable(durable_);
  state->durable_digest = Md5::Hash(state->chunk_table).lo64();
  state_ = std::move(state);
}

CrashableDisk::~CrashableDisk() {
  if (mtd_ != nullptr) mtd_->set_write_observer(nullptr);
}

void CrashableDisk::AttachMtd(std::shared_ptr<MtdDevice> mtd) {
  mtd_ = std::move(mtd);
  mtd_->set_write_observer(this);
}

Status CrashableDisk::Write(std::uint64_t offset, ByteView data) {
  Status s = inner_->Write(offset, data);
  if (!s.ok()) return s;
  // With an MTD attached the observer hook already saw the raw programs
  // this shim write decomposed into; recording here would double-count.
  if (mtd_ == nullptr) RecordWrite(offset, data);
  return Status::Ok();
}

Status CrashableDisk::Flush() {
  // MTD stack: the barrier arrives via OnMtdBarrier (the shim's Flush
  // forwards to MtdDevice::Flush, which calls the observer). Committing
  // here too would commit twice per barrier.
  if (mtd_ != nullptr) return inner_->Flush();
  if (injected_flush_errors_ > 0) {
    --injected_flush_errors_;
    return Errno::kEIO;
  }
  if (Status s = inner_->Flush(); !s.ok()) return s;
  CommitBarrier();
  return Status::Ok();
}

void CrashableDisk::OnMtdWrite(std::uint64_t offset, ByteView after) {
  RecordWrite(offset, after);
}

Status CrashableDisk::OnMtdBarrier() {
  if (injected_flush_errors_ > 0) {
    --injected_flush_errors_;
    return Errno::kEIO;
  }
  CommitBarrier();
  return Status::Ok();
}

CrashRecorderState& CrashableDisk::MutState() {
  if (state_.use_count() > 1) {
    state_ = std::make_shared<CrashRecorderState>(*state_);
  }
  // Recorder states are made only here and in the constructor, and not
  // const; the pointer is to const so that snapshots cannot change one.
  return const_cast<CrashRecorderState&>(*state_);
}

void CrashableDisk::RecordWrite(std::uint64_t offset, ByteView after) {
  MutState().journal.push_back({offset, Bytes(after.begin(), after.end())});
}

void CrashableDisk::CommitBarrier() {
  CrashRecorderState& state = MutState();
  std::vector<std::size_t> dirty;
  for (const CrashRecorderState::Write& rec : state.journal) {
    durable_.Write(rec.offset, rec.after);
    AddTouchedChunks(rec.offset, rec.after.size(), &dirty);
  }
  SortUnique(&dirty);
  HashChunksInto(durable_, dirty, &state.chunk_table);
  state.journal.clear();
  ++state.barriers;
  state.durable_digest = Md5::Hash(state.chunk_table).lo64();
}

void CrashableDisk::MarkClean() {
  if (state_->journal.empty()) return;
  CommitBarrier();
}

BlockImage CrashableDisk::ImageWithSubset(
    const std::vector<std::size_t>& applied) const {
  BlockImage image = durable_;
  // Ascending indices = issue order, so overlapping in-flight writes
  // resolve the same way the device would (later write wins).
  for (std::size_t idx : applied) {
    image.Write(state_->journal[idx].offset, state_->journal[idx].after);
  }
  return image;
}

std::vector<CrashState> CrashableDisk::EnumerateCrashStates(
    const CrashStateOptions& options) const {
  std::vector<CrashState> states;
  VisitCrashStates(options, [&states](CrashState state) {
    states.push_back(std::move(state));
    return true;
  });
  return states;
}

void CrashableDisk::VisitCrashStates(
    const CrashStateOptions& options,
    const std::function<bool(CrashState)>& visit) const {
  const std::size_t n = state_->journal.size();
  const std::size_t cap = std::max<std::size_t>(options.max_states, 2);

  std::vector<std::vector<std::size_t>> subsets;
  auto prefix = [](std::size_t k) {
    std::vector<std::size_t> s(k);
    for (std::size_t i = 0; i < k; ++i) s[i] = i;
    return s;
  };
  auto from_mask = [n](std::uint64_t mask) {
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) s.push_back(i);
    }
    return s;
  };

  if (options.barrier_model == BarrierModel::kOrdered) {
    if (n + 1 <= cap) {
      for (std::size_t k = 0; k <= n; ++k) subsets.push_back(prefix(k));
    } else {
      // Always the two endpoints, then a seeded spread of interior cuts.
      std::set<std::size_t> lens = {0, n};
      Rng rng(options.seed);
      while (lens.size() < cap) lens.insert(1 + rng.Below(n - 1));
      for (std::size_t k : lens) subsets.push_back(prefix(k));
    }
  } else {
    const bool exhaustive =
        n < 64 && (std::uint64_t{1} << n) <= static_cast<std::uint64_t>(cap);
    if (exhaustive) {
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        subsets.push_back(from_mask(mask));
      }
    } else {
      std::set<std::uint64_t> masks;
      masks.insert(0);
      masks.insert(n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1);
      Rng rng(options.seed);
      // Attempt cap: drawing duplicates forever must not hang enumeration.
      for (std::size_t attempt = 0; attempt < cap * 8 && masks.size() < cap;
           ++attempt) {
        std::uint64_t mask = rng.Next();
        if (n < 64) mask &= (std::uint64_t{1} << n) - 1;
        masks.insert(mask);
      }
      for (std::uint64_t mask : masks) subsets.push_back(from_mask(mask));
    }
  }

  // Candidates share every block their writes do not touch, so an
  // equality test reads only the blocks either image rewrote.
  std::vector<BlockImage> visited;
  for (auto& subset : subsets) {
    BlockImage image = ImageWithSubset(subset);
    if (std::find(visited.begin(), visited.end(), image) != visited.end()) {
      continue;
    }
    visited.push_back(image);
    CrashState state;
    state.image = std::move(image);
    state.applied = std::move(subset);
    state.pending_total = n;
    if (!visit(std::move(state))) return;
  }
}

std::uint64_t CrashableDisk::StateDigest() const {
  Md5 md5;
  md5.UpdateU64(state_->durable_digest);
  md5.UpdateU64(state_->barriers);
  md5.UpdateU64(state_->journal.size());
  for (const CrashRecorderState::Write& rec : state_->journal) {
    md5.UpdateU64(rec.offset);
    md5.Update(ByteView(rec.after.data(), rec.after.size()));
  }
  return md5.Final().lo64();
}

DeviceSnapshot CrashableDisk::SnapshotContents() const {
  return DeviceSnapshot{durable_, state_};
}

Status CrashableDisk::RestoreContents(const DeviceSnapshot& contents) {
  // Recorder state taken on a disk of another size would not fit: its
  // table has one entry per chunk of that disk, and its journal's writes
  // may lie past this one's end.
  if (contents.recorder == nullptr ||
      contents.image.size() != inner_->size_bytes() ||
      contents.recorder->chunk_table.size() != state_->chunk_table.size()) {
    return Errno::kEINVAL;
  }
  // The inner device's live contents = durable + every in-flight write,
  // which copies only the blocks those writes touch.
  BlockImage live = contents.image;
  for (const CrashRecorderState::Write& rec : contents.recorder->journal) {
    live.Write(rec.offset, rec.after);
  }
  if (Status s = inner_->RestoreContents(DeviceSnapshot{std::move(live), {}});
      !s.ok()) {
    return s;
  }
  durable_ = contents.image;
  state_ = contents.recorder;
  return Status::Ok();
}

}  // namespace mcfs::storage
