// Unit tests for CrashableDisk: crash-state enumeration (barrier
// legality, golden counts, dedup, sampling), flush fault injection,
// snapshot bookkeeping and hostile snapshots, a differential of the
// chunk-digest dedup against whole-image MD5, and the MTD observer path —
// including the regression test for MtdBlockShim::Flush(), which used to
// be a silent no-op and made every un-flushed write look durable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "storage/crashable_disk.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"
#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::storage {
namespace {

std::shared_ptr<CrashableDisk> MakeDisk(std::uint64_t bytes = 4096) {
  return std::make_shared<CrashableDisk>(
      std::make_shared<RamDisk>("d0", bytes, nullptr));
}

Bytes ReadAll(BlockDevice& dev) {
  Bytes out(dev.size_bytes());
  EXPECT_TRUE(dev.Read(0, out).ok());
  return out;
}

TEST(CrashableDiskTest, GoldenCountsForThreeWritesOneBarrier) {
  auto disk = MakeDisk();
  // One barriered write, then three in-flight writes at distinct offsets.
  ASSERT_TRUE(disk->Write(0, AsBytes("base")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(100, AsBytes("aa")).ok());
  ASSERT_TRUE(disk->Write(200, AsBytes("bb")).ok());
  ASSERT_TRUE(disk->Write(300, AsBytes("cc")).ok());
  ASSERT_EQ(disk->pending_writes(), 3u);
  ASSERT_EQ(disk->barriers(), 1u);

  CrashStateOptions ordered;
  ordered.barrier_model = BarrierModel::kOrdered;
  EXPECT_EQ(disk->EnumerateCrashStates(ordered).size(), 4u);  // prefixes 0..3

  CrashStateOptions reorder;
  reorder.barrier_model = BarrierModel::kReorderable;
  EXPECT_EQ(disk->EnumerateCrashStates(reorder).size(), 8u);  // 2^3 subsets
}

TEST(CrashableDiskTest, BarrierLegality) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("durable!")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(512, AsBytes("pending")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  const auto states = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(states.size(), 2u);
  for (const CrashState& st : states) {
    // No crash state may lose a write that preceded a barrier.
    const Bytes image = st.image.ToBytes();
    EXPECT_EQ(std::string(image.begin(), image.begin() + 8), "durable!");
  }
  // Exactly one state applies the pending write.
  const auto applied = std::count_if(
      states.begin(), states.end(),
      [](const CrashState& st) { return st.applied.size() == 1; });
  EXPECT_EQ(applied, 1);
}

TEST(CrashableDiskTest, OrderedModelYieldsPrefixesOnly) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("w0")).ok());
  ASSERT_TRUE(disk->Write(100, AsBytes("w1")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kOrdered;
  const auto states = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(states.size(), 3u);
  for (const CrashState& st : states) {
    for (std::size_t i = 0; i < st.applied.size(); ++i) {
      EXPECT_EQ(st.applied[i], i);  // contiguous from zero = a prefix
    }
  }
}

TEST(CrashableDiskTest, IdenticalImagesDedup) {
  auto disk = MakeDisk();
  // Two identical in-flight writes: applying either one alone (or both)
  // produces the same image, so {0}, {1}, {0,1} collapse into one state.
  ASSERT_TRUE(disk->Write(50, AsBytes("same")).ok());
  ASSERT_TRUE(disk->Write(50, AsBytes("same")).ok());

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  EXPECT_EQ(disk->EnumerateCrashStates(opts).size(), 2u);
}

TEST(CrashableDiskTest, SamplingHonorsCapAndKeepsEndpoints) {
  auto disk = MakeDisk(1 << 16);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(disk->Write(static_cast<std::uint64_t>(i) * 16,
                            AsBytes("x" + std::to_string(i))).ok());
  }

  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kReorderable;
  opts.max_states = 16;
  opts.seed = 7;
  const auto states = disk->EnumerateCrashStates(opts);
  EXPECT_LE(states.size(), 16u);
  bool has_empty = false;
  bool has_full = false;
  for (const CrashState& st : states) {
    if (st.applied.empty()) has_empty = true;
    if (st.applied.size() == 20u) has_full = true;
  }
  EXPECT_TRUE(has_empty);  // the "nothing persisted" crash
  EXPECT_TRUE(has_full);   // the "everything persisted" crash
}

TEST(CrashableDiskTest, SamplingIsDeterministicPerSeed) {
  auto disk = MakeDisk(1 << 16);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(disk->Write(static_cast<std::uint64_t>(i) * 32,
                            AsBytes("y" + std::to_string(i))).ok());
  }
  CrashStateOptions opts;
  opts.max_states = 8;
  opts.seed = 3;
  const auto first = disk->EnumerateCrashStates(opts);
  const auto second = disk->EnumerateCrashStates(opts);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].applied, second[i].applied);
    EXPECT_EQ(first[i].image, second[i].image);
  }
}

TEST(CrashableDiskTest, FlushFaultInjection) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("inflight")).ok());
  disk->InjectFlushErrors(1);
  EXPECT_EQ(disk->Flush().error(), Errno::kEIO);
  // The failed barrier commits nothing: the write stays in flight.
  EXPECT_EQ(disk->pending_writes(), 1u);
  EXPECT_EQ(disk->barriers(), 0u);
  // The next barrier succeeds and drains the journal.
  EXPECT_TRUE(disk->Flush().ok());
  EXPECT_EQ(disk->pending_writes(), 0u);
  EXPECT_EQ(disk->barriers(), 1u);
  const Bytes durable = disk->durable_image().ToBytes();
  EXPECT_EQ(std::string(durable.begin(), durable.begin() + 8), "inflight");
}

TEST(CrashableDiskTest, SnapshotCarriesCrashBookkeeping) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("durable")).ok());
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(256, AsBytes("pending")).ok());

  const DeviceSnapshot snapshot = disk->SnapshotContents();
  // The durable image rides as the shared image, not as blob bytes.
  EXPECT_TRUE(snapshot.image == disk->durable_image());

  // Mutate past the snapshot: another barrier plus another write.
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(512, AsBytes("later")).ok());
  ASSERT_EQ(disk->barriers(), 2u);

  ASSERT_TRUE(disk->RestoreContents(snapshot).ok());
  EXPECT_EQ(disk->barriers(), 1u);
  EXPECT_EQ(disk->pending_writes(), 1u);
  // Live contents include the in-flight write again...
  const Bytes live = ReadAll(*disk);
  EXPECT_EQ(std::string(live.begin() + 256, live.begin() + 263), "pending");
  // ...but the durable image does not.
  const Bytes durable = disk->durable_image().ToBytes();
  EXPECT_EQ(durable[256], 0);

  EXPECT_EQ(
      disk->RestoreContents(DeviceSnapshot{BlockImage(Bytes(64, 0xab)), {}})
          .error(),
      Errno::kEINVAL);
  EXPECT_EQ(
      disk->RestoreContents(DeviceSnapshot{snapshot.image, Bytes(64, 0xab)})
          .error(),
      Errno::kEINVAL);

  // Hostile snapshots: each returns EINVAL and leaves the recorder and
  // the live contents exactly as they were.
  ASSERT_TRUE(disk->Flush().ok());
  ASSERT_TRUE(disk->Write(1024, AsBytes("current")).ok());
  const std::uint64_t barriers = disk->barriers();
  const std::size_t pending = disk->pending_writes();
  const BlockImage durable_before = disk->durable_image();
  const std::uint64_t digest = disk->StateDigest();
  const Bytes live_before = ReadAll(*disk);
  auto expect_rejected = [&](const DeviceSnapshot& bad,
                             const std::string& what) {
    EXPECT_EQ(disk->RestoreContents(bad).error(), Errno::kEINVAL) << what;
    EXPECT_EQ(disk->barriers(), barriers) << what;
    EXPECT_EQ(disk->pending_writes(), pending) << what;
    EXPECT_TRUE(disk->durable_image() == durable_before) << what;
    EXPECT_EQ(disk->StateDigest(), digest) << what;
    EXPECT_TRUE(ReadAll(*disk) == live_before) << what;
  };
  // The snapshot's image with its bookkeeping blob patched.
  auto put_le = [&snapshot](std::size_t at, std::uint64_t v,
                            std::size_t width) {
    DeviceSnapshot patched = snapshot;
    for (std::size_t i = 0; i < width; ++i) {
      patched.bookkeeping[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return patched;
  };

  const Bytes& blob = snapshot.bookkeeping;
  for (std::size_t len = 0; len < blob.size(); ++len) {
    expect_rejected(
        DeviceSnapshot{snapshot.image,
                       Bytes(blob.begin(),
                             blob.begin() + static_cast<std::ptrdiff_t>(len))},
        "truncated to " + std::to_string(len));
  }
  // The blob opens with a u32 magic and the u64 durable length, and ends
  // with its journal: a u32 count, then the one record (u64 offset, u64
  // length, the 7 bytes of "pending").
  const std::size_t record_at = blob.size() - (8 + 8 + 7);
  const std::size_t count_at = record_at - 4;
  expect_rejected(put_le(record_at, std::uint64_t{1} << 40, 8),
                  "offset far past the image");
  expect_rejected(put_le(record_at, 4096 - 3, 8),
                  "record overrunning the image end");
  expect_rejected(put_le(count_at, 0xffffffffu, 4), "absurd record count");
  expect_rejected(put_le(4, 8192, 8), "durable length disagrees with image");
  auto bigger = MakeDisk(8192);
  ASSERT_TRUE(bigger->Write(0, AsBytes("x")).ok());
  const DeviceSnapshot bigger_snapshot = bigger->SnapshotContents();
  expect_rejected(bigger_snapshot, "well-formed, wrong size");
  expect_rejected(DeviceSnapshot{bigger_snapshot.image, blob},
                  "image of the wrong size");
}

TEST(CrashableDiskTest, MarkCleanCommitsWithoutBarrier) {
  auto disk = MakeDisk();
  ASSERT_TRUE(disk->Write(0, AsBytes("setup")).ok());
  ASSERT_EQ(disk->pending_writes(), 1u);
  disk->MarkClean();
  EXPECT_EQ(disk->pending_writes(), 0u);
  CrashStateOptions opts;
  EXPECT_EQ(disk->EnumerateCrashStates(opts).size(), 1u);
}

TEST(CrashableDiskTest, StateDigestSeesPendingWrites) {
  auto disk = MakeDisk();
  const std::uint64_t clean = disk->StateDigest();
  ASSERT_TRUE(disk->Write(0, AsBytes("w")).ok());
  const std::uint64_t dirty = disk->StateDigest();
  EXPECT_NE(clean, dirty);
  ASSERT_TRUE(disk->Flush().ok());
  // Committing changes the durable image, so the digest moves again.
  EXPECT_NE(disk->StateDigest(), dirty);
}

// --- Differential: chunk-digest dedup vs whole-image MD5 -----------------
//
// A test-local reference recorder keeps its own durable image and journal,
// materializes every candidate of the exhaustive enumeration (prefixes in
// length order, or subsets in mask order), and dedups by MD5 of each full
// image. The recorder must return the same states, applied lists and
// images. Journals stay at most 6 writes long, so max_states = 64 keeps
// both barrier models exhaustive.

constexpr std::size_t kMaxPending = 6;

class ReferenceRecorder {
 public:
  explicit ReferenceRecorder(Bytes durable) : durable_(std::move(durable)) {}

  void Record(std::uint64_t offset, ByteView after) {
    journal_.emplace_back(offset, Bytes(after.begin(), after.end()));
  }
  void Barrier() {
    std::vector<std::size_t> all(journal_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    durable_ = Image(all);
    journal_.clear();
  }
  std::size_t pending() const { return journal_.size(); }

  std::vector<CrashState> Enumerate(BarrierModel model) const {
    const std::size_t n = journal_.size();
    std::vector<std::vector<std::size_t>> candidates;
    if (model == BarrierModel::kOrdered) {
      for (std::size_t k = 0; k <= n; ++k) {
        candidates.emplace_back();
        for (std::size_t i = 0; i < k; ++i) candidates.back().push_back(i);
      }
    } else {
      for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        candidates.emplace_back();
        for (std::size_t i = 0; i < n; ++i) {
          if ((mask >> i) & 1) candidates.back().push_back(i);
        }
      }
    }
    std::set<Md5Digest> seen;
    std::vector<CrashState> states;
    for (const auto& applied : candidates) {
      const Bytes image = Image(applied);
      if (!seen.insert(Md5::Hash(image)).second) continue;
      CrashState st;
      st.image = BlockImage(image);
      st.applied = applied;
      st.pending_total = n;
      states.push_back(std::move(st));
    }
    return states;
  }

 private:
  Bytes Image(const std::vector<std::size_t>& applied) const {
    Bytes image = durable_;
    for (std::size_t idx : applied) {
      const auto& [offset, after] = journal_[idx];
      std::copy(after.begin(), after.end(), image.begin() + offset);
    }
    return image;
  }

  Bytes durable_;
  std::vector<std::pair<std::uint64_t, Bytes>> journal_;
};

void ExpectMatchesReference(const CrashableDisk& disk,
                            const ReferenceRecorder& ref,
                            const std::string& where) {
  for (BarrierModel model :
       {BarrierModel::kOrdered, BarrierModel::kReorderable}) {
    CrashStateOptions opts;
    opts.barrier_model = model;
    opts.max_states = 64;
    const auto got = disk.EnumerateCrashStates(opts);
    const auto want = ref.Enumerate(model);
    const std::string what =
        where + (model == BarrierModel::kOrdered ? " ordered" : " reorder");
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].applied, want[i].applied) << what << " #" << i;
      EXPECT_TRUE(got[i].image == want[i].image) << what << " #" << i;
      EXPECT_EQ(got[i].pending_total, want[i].pending_total) << what;
    }
  }
}

Bytes RandomBytes(Rng& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

// Also pins the digest contracts at every step: a snapshot round trip
// keeps StateDigest(), and so does a twin recorder fed the same writes
// and barriers.
void ExpectDigestContracts(CrashableDisk& disk, const CrashableDisk& twin,
                           const std::string& where) {
  const std::uint64_t digest = disk.StateDigest();
  EXPECT_EQ(twin.StateDigest(), digest) << where;
  ASSERT_TRUE(disk.RestoreContents(disk.SnapshotContents()).ok()) << where;
  EXPECT_EQ(disk.StateDigest(), digest) << where;
}

TEST(CrashableDiskDifferential, BlockJournalsMatchFullImageDedup) {
  // Six full chunks plus a partial one, so the last chunk is short.
  constexpr std::uint64_t kBytes = 6 * CrashableDisk::kChunkBytes + 512;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto disk = MakeDisk(kBytes);
    auto twin = MakeDisk(kBytes);
    ReferenceRecorder ref(disk->durable_image().ToBytes());
    std::vector<std::pair<std::uint64_t, Bytes>> in_flight;  // since barrier
    DeviceSnapshot mid_snapshot;
    std::uint64_t mid_digest = 0;
    ReferenceRecorder mid_ref = ref;
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::uint64_t pick = rng.Below(100);
      if (pick < 15 || ref.pending() == kMaxPending) {
        ASSERT_TRUE(disk->Flush().ok());
        ASSERT_TRUE(twin->Flush().ok());
        ref.Barrier();
        in_flight.clear();
      } else {
        std::uint64_t offset = 0;
        Bytes data;
        if (pick < 30 && !in_flight.empty()) {
          // Identical rewrite of an earlier in-flight write.
          std::tie(offset, data) = in_flight[rng.Below(in_flight.size())];
        } else if (pick < 50 && !in_flight.empty()) {
          // Overlaps an earlier in-flight write, shifted by a few bytes.
          const auto& prev = in_flight[rng.Below(in_flight.size())];
          offset = std::min<std::uint64_t>(prev.first + rng.Below(64),
                                           kBytes - 1);
          data = RandomBytes(rng, 1 + rng.Below(std::min<std::uint64_t>(
                                          prev.second.size() + 64,
                                          kBytes - offset)));
        } else if (pick < 60) {
          // Writes back the durable bytes: alone, it leaves the image
          // as if nothing were applied.
          offset = rng.Below(kBytes);
          const std::uint64_t len = 1 + rng.Below(kBytes - offset);
          const Bytes durable = disk->durable_image().ToBytes();
          data.assign(durable.begin() + offset,
                      durable.begin() + offset + len);
        } else {
          offset = rng.Below(kBytes);
          data = RandomBytes(
              rng, 1 + rng.Below(std::min<std::uint64_t>(
                           2 * CrashableDisk::kChunkBytes, kBytes - offset)));
        }
        ASSERT_TRUE(disk->Write(offset, data).ok()) << where;
        ASSERT_TRUE(twin->Write(offset, data).ok()) << where;
        ref.Record(offset, data);
        in_flight.emplace_back(offset, data);
      }
      ExpectMatchesReference(*disk, ref, where);
      ExpectDigestContracts(*disk, *twin, where);
      if (step == 20) {
        mid_snapshot = disk->SnapshotContents();
        mid_digest = disk->StateDigest();
        mid_ref = ref;
      }
    }
    // Rolling back to the mid-run snapshot restores its digest and its
    // crash states.
    ASSERT_TRUE(disk->RestoreContents(mid_snapshot).ok());
    EXPECT_EQ(disk->StateDigest(), mid_digest);
    ExpectMatchesReference(*disk, mid_ref, "rolled back");
  }
}

// One MTD stack with the recorder attached as its write observer.
struct MtdStack {
  explicit MtdStack(std::uint64_t bytes, MtdOptions options)
      : mtd(std::make_shared<MtdDevice>("mtd0", bytes, nullptr, options)),
        crash(std::make_shared<CrashableDisk>(
            std::make_shared<MtdBlockShim>(mtd))) {
    crash->AttachMtd(mtd);
  }
  std::shared_ptr<MtdDevice> mtd;
  std::shared_ptr<CrashableDisk> crash;
};

TEST(CrashableDiskDifferential, MtdJournalsMatchFullImageDedup) {
  MtdOptions options;
  options.erase_block_size = 2 * CrashableDisk::kChunkBytes;
  constexpr std::uint64_t kBytes = 4 * 2 * CrashableDisk::kChunkBytes;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    MtdStack live(kBytes, options);
    MtdStack twin(kBytes, options);
    ReferenceRecorder ref(live.crash->durable_image().ToBytes());
    DeviceSnapshot mid_snapshot;
    std::uint64_t mid_digest = 0;
    ReferenceRecorder mid_ref = ref;
    // Runs one raw flash mutation on both stacks and journals its
    // post-image in the reference, as the observer hook sees it.
    auto program = [&](std::uint64_t offset, const Bytes& data) {
      ASSERT_TRUE(live.mtd->Program(offset, data).ok());
      ASSERT_TRUE(twin.mtd->Program(offset, data).ok());
      Bytes after(data.size());
      ASSERT_TRUE(live.mtd->Read(offset, after).ok());
      ref.Record(offset, after);
    };
    auto erase = [&](std::uint32_t block) {
      ASSERT_TRUE(live.mtd->EraseBlock(block).ok());
      ASSERT_TRUE(twin.mtd->EraseBlock(block).ok());
      ref.Record(std::uint64_t{block} * options.erase_block_size,
                 Bytes(options.erase_block_size, 0xff));
    };
    for (int step = 0; step < 40; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::uint64_t pick = rng.Below(100);
      const std::uint64_t offset = rng.Below(kBytes);
      const std::uint64_t len =
          1 + rng.Below(std::min<std::uint64_t>(6000, kBytes - offset));
      Bytes current(len);
      ASSERT_TRUE(live.mtd->Read(offset, current).ok());
      if (pick < 15 || ref.pending() + 1 >= kMaxPending) {
        ASSERT_TRUE(live.mtd->Flush().ok());
        ASSERT_TRUE(twin.mtd->Flush().ok());
        ref.Barrier();
      } else if (pick < 40) {
        // Erase + program pair inside one erase block.
        const auto block = static_cast<std::uint32_t>(
            offset / options.erase_block_size);
        const std::uint64_t start =
            std::uint64_t{block} * options.erase_block_size;
        erase(block);
        program(start + rng.Below(64),
                RandomBytes(rng, 1 + rng.Below(3000)));
      } else if (pick < 55) {
        program(offset, current);  // identical rewrite: clears no bit
      } else {
        // Flash programs only clear bits: keep a random subset of them.
        Bytes data = RandomBytes(rng, len);
        for (std::size_t i = 0; i < len; ++i) data[i] &= current[i];
        program(offset, data);
      }
      if (HasFatalFailure()) return;
      ExpectMatchesReference(*live.crash, ref, where);
      ExpectDigestContracts(*live.crash, *twin.crash, where);
      if (step == 20) {
        mid_snapshot = live.crash->SnapshotContents();
        mid_digest = live.crash->StateDigest();
        mid_ref = ref;
      }
    }
    ASSERT_TRUE(live.crash->RestoreContents(mid_snapshot).ok());
    EXPECT_EQ(live.crash->StateDigest(), mid_digest);
    ExpectMatchesReference(*live.crash, mid_ref, "rolled back");
  }
}

// --- MTD observer path ---------------------------------------------------

TEST(CrashableDiskMtdTest, ObserverJournalsProgramsAndErases) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  ASSERT_TRUE(mtd->Program(0, AsBytes("node")).ok());
  // Erase + program both count as in-flight post-images.
  EXPECT_EQ(crash->pending_writes(), 2u);

  // fsync-driven barrier: MtdDevice::Flush reaches the observer.
  ASSERT_TRUE(mtd->Flush().ok());
  EXPECT_EQ(crash->pending_writes(), 0u);
  EXPECT_EQ(crash->barriers(), 1u);
}

TEST(CrashableDiskMtdTest, ShimWritesAreNotDoubleCounted) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  // A shim write decomposes into erase+program on the MTD. Only the raw
  // observer hooks may journal those — if the block-level Write recorded
  // too, the same bytes would be journaled twice (3 records, and crash
  // subsets could resurrect the pre-erase image after the program).
  ASSERT_TRUE(crash->Write(0, Bytes(16, 0x5a)).ok());
  EXPECT_EQ(crash->pending_writes(), 2u);  // erase + program, nothing else

  // Applying the full journal reproduces the live flash exactly.
  CrashStateOptions opts;
  opts.barrier_model = BarrierModel::kOrdered;
  const auto states = crash->EnumerateCrashStates(opts);
  ASSERT_FALSE(states.empty());
  EXPECT_EQ(states.back().image, mtd->SnapshotContents().image);
}

// Regression: MtdBlockShim::Flush used to return Ok() without touching
// the MTD, so an attached recorder never saw jffs2f's fsync barriers.
TEST(CrashableDiskMtdTest, ShimFlushIsARealBarrier) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  ASSERT_TRUE(mtd->Program(0, AsBytes("fsynced")).ok());
  ASSERT_EQ(crash->barriers(), 0u);

  // The barrier must flow shim -> MTD -> observer.
  ASSERT_TRUE(shim->Flush().ok());
  EXPECT_EQ(crash->barriers(), 1u);
  EXPECT_EQ(crash->pending_writes(), 0u);
  EXPECT_EQ(shim->stats().flushes, 1u);
}

TEST(CrashableDiskMtdTest, ObserverBarrierFaultInjection) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  auto shim = std::make_shared<MtdBlockShim>(mtd);
  auto crash = std::make_shared<CrashableDisk>(shim);
  crash->AttachMtd(mtd);

  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  crash->InjectFlushErrors(1);
  EXPECT_EQ(mtd->Flush().error(), Errno::kEIO);
  EXPECT_EQ(crash->barriers(), 0u);
  EXPECT_EQ(crash->pending_writes(), 1u);  // the erase stays in flight
  EXPECT_TRUE(mtd->Flush().ok());
  EXPECT_EQ(crash->barriers(), 1u);
}

TEST(CrashableDiskMtdTest, DetachesObserverOnDestruction) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  {
    auto shim = std::make_shared<MtdBlockShim>(mtd);
    auto crash = std::make_shared<CrashableDisk>(shim);
    crash->AttachMtd(mtd);
  }
  // No dangling observer: these must not touch freed memory.
  ASSERT_TRUE(mtd->EraseBlock(0).ok());
  EXPECT_TRUE(mtd->Flush().ok());
}

}  // namespace
}  // namespace mcfs::storage
