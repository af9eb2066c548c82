#include "storage/crashable_disk.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "util/bytes.h"
#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::storage {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4352444bu;  // "CRDK"
constexpr std::size_t kChunkBytes = CrashableDisk::kChunkBytes;
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

Bytes ChunkTable(const BlockImage& image) {
  Bytes table(ChunkCount(image.size()) * kDigestBytes);
  for (std::size_t c = 0; c < ChunkCount(image.size()); ++c) {
    StoreDigest(&table, c, Md5::Hash(image.Block(c)));
  }
  return table;
}

}  // namespace

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
    : inner_(std::move(inner)),
      durable_(inner_->SnapshotContents().image),
      chunk_table_(ChunkTable(durable_)),
      durable_digest_(Md5::Hash(chunk_table_).lo64()) {}

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

void CrashableDisk::RecordWrite(std::uint64_t offset, ByteView after) {
  WriteRecord rec;
  rec.offset = offset;
  rec.after.assign(after.begin(), after.end());
  journal_.push_back(std::move(rec));
}

void CrashableDisk::CommitBarrier() {
  std::vector<std::size_t> dirty;
  for (const WriteRecord& rec : journal_) {
    durable_.Write(rec.offset, rec.after);
    AddTouchedChunks(rec.offset, rec.after.size(), &dirty);
  }
  SortUnique(&dirty);
  for (std::size_t c : dirty) {
    StoreDigest(&chunk_table_, c, Md5::Hash(durable_.Block(c)));
  }
  journal_.clear();
  ++barriers_;
  durable_digest_ = Md5::Hash(chunk_table_).lo64();
}

void CrashableDisk::MarkClean() {
  if (journal_.empty()) return;
  CommitBarrier();
}

BlockImage CrashableDisk::ImageWithSubset(
    const std::vector<std::size_t>& applied) const {
  BlockImage image = durable_;
  // Ascending indices = issue order, so overlapping in-flight writes
  // resolve the same way the device would (later write wins).
  for (std::size_t idx : applied) {
    image.Write(journal_[idx].offset, journal_[idx].after);
  }
  return image;
}

Md5Digest CrashableDisk::SubsetDigest(
    const std::vector<std::size_t>& applied) const {
  std::vector<std::size_t> touched;
  for (std::size_t idx : applied) {
    AddTouchedChunks(journal_[idx].offset, journal_[idx].after.size(),
                     &touched);
  }
  SortUnique(&touched);
  // The table digest streams the durable entries between touched chunks
  // and a fresh digest for each touched one, so it equals MD5 over the
  // table this image's own chunks would produce.
  Md5 table;
  std::size_t next = 0;
  Bytes chunk;
  for (std::size_t c : touched) {
    table.Update(ByteView(chunk_table_).subspan(
        next * kDigestBytes, (c - next) * kDigestBytes));
    const ByteView durable = durable_.Block(c);
    chunk.assign(durable.begin(), durable.end());
    const std::uint64_t begin = c * kChunkBytes;
    const std::uint64_t end = begin + chunk.size();
    for (std::size_t idx : applied) {  // write order: later write wins
      const WriteRecord& rec = journal_[idx];
      const std::uint64_t lo = std::max(begin, rec.offset);
      const std::uint64_t hi = std::min(end, rec.offset + rec.after.size());
      if (lo >= hi) continue;
      std::memcpy(chunk.data() + (lo - begin),
                  rec.after.data() + (lo - rec.offset), hi - lo);
    }
    table.Update(Md5::Hash(chunk).bytes);
    next = c + 1;
  }
  table.Update(ByteView(chunk_table_).subspan(next * kDigestBytes));
  return table.Final();
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
  const std::size_t n = journal_.size();
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

  std::set<Md5Digest> seen;  // dedup identical images
  for (auto& subset : subsets) {
    if (!seen.insert(SubsetDigest(subset)).second) continue;
    CrashState state;
    state.image = ImageWithSubset(subset);
    state.applied = std::move(subset);
    state.pending_total = n;
    if (!visit(std::move(state))) return;
  }
}

std::uint64_t CrashableDisk::StateDigest() const {
  Md5 md5;
  md5.UpdateU64(durable_digest_);
  md5.UpdateU64(barriers_);
  md5.UpdateU64(journal_.size());
  for (const WriteRecord& rec : journal_) {
    md5.UpdateU64(rec.offset);
    md5.Update(ByteView(rec.after.data(), rec.after.size()));
  }
  return md5.Final().lo64();
}

DeviceSnapshot CrashableDisk::SnapshotContents() const {
  // The durable image rides as the snapshot's shared image. The blob
  // keeps its length where a copy of its bytes would sit, so a restore
  // checks the two agree and size() counts the whole durable image.
  ByteWriter w;
  w.PutU32(kSnapshotMagic);
  w.PutU64(durable_.size());
  w.PutBlob(chunk_table_);
  w.PutU64(barriers_);
  w.PutU32(static_cast<std::uint32_t>(journal_.size()));
  for (const WriteRecord& rec : journal_) {
    w.PutU64(rec.offset);
    w.PutBlob(rec.after);
  }
  return DeviceSnapshot{durable_, w.Take()};
}

Status CrashableDisk::RestoreContents(const DeviceSnapshot& contents) {
  // Parse and check the whole snapshot before touching a member or the
  // inner device, so a malformed one changes nothing.
  const BlockImage& durable = contents.image;
  if (durable.size() != inner_->size_bytes()) return Errno::kEINVAL;
  Bytes table;
  std::uint64_t barriers = 0;
  std::vector<WriteRecord> journal;
  try {
    ByteReader r(contents.bookkeeping);
    if (r.GetU32() != kSnapshotMagic) return Errno::kEINVAL;
    if (r.GetU64() != durable.size()) return Errno::kEINVAL;
    table = r.GetBlob();
    if (table.size() != ChunkCount(durable.size()) * kDigestBytes) {
      return Errno::kEINVAL;
    }
    barriers = r.GetU64();
    const std::uint32_t count = r.GetU32();
    // Each record holds at least an offset and a blob length, which
    // bounds the count before anything is reserved for it.
    if (count > r.remaining() / (2 * sizeof(std::uint64_t))) {
      return Errno::kEINVAL;
    }
    journal.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      WriteRecord rec;
      rec.offset = r.GetU64();
      rec.after = r.GetBlob();
      if (rec.offset > durable.size() ||
          rec.after.size() > durable.size() - rec.offset) {
        return Errno::kEINVAL;
      }
      journal.push_back(std::move(rec));
    }
    if (!r.AtEnd()) return Errno::kEINVAL;
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
  // The inner device's live contents = durable + every in-flight write,
  // which copies only the blocks those writes touch.
  BlockImage live = durable;
  for (const WriteRecord& rec : journal) live.Write(rec.offset, rec.after);
  if (Status s = inner_->RestoreContents(DeviceSnapshot{std::move(live), {}});
      !s.ok()) {
    return s;
  }
  durable_ = durable;
  chunk_table_ = std::move(table);
  journal_ = std::move(journal);
  barriers_ = barriers;
  durable_digest_ = Md5::Hash(chunk_table_).lo64();
  return Status::Ok();
}

}  // namespace mcfs::storage
