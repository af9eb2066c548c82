// Unit tests for the storage substrates: RAM disk (brd/brd2 semantics),
// its copy-on-write block image (a seeded differential against a flat
// byte model) and the image's fill byte, the exact simulated cost of
// device capture, HDD/SSD latency decorators, the charge-only Scan on
// every device, and the MTD flash device (a seeded differential against
// a flat 0xff model) with its mtdblock-style shim.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "storage/crashable_disk.h"
#include "storage/latency_disk.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"
#include "util/rng.h"

namespace mcfs::storage {
namespace {

TEST(RamDiskTest, ReadWriteRoundTrip) {
  RamDisk disk("d0", 4096, nullptr);
  const Bytes payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(disk.Write(100, payload).ok());
  Bytes out(5);
  ASSERT_TRUE(disk.Read(100, out).ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  EXPECT_EQ(disk.stats().bytes_written, 5u);
}

TEST(RamDiskTest, OutOfRangeIsEio) {
  RamDisk disk("d0", 1024, nullptr);
  Bytes buf(64);
  EXPECT_EQ(disk.Read(1000, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.Write(1020, Bytes(10)).error(), Errno::kEIO);
  // Exactly at the boundary is fine.
  EXPECT_TRUE(disk.Write(1024 - 10, Bytes(10)).ok());
}

TEST(RamDiskTest, WrappingOffsetIsEio) {
  // offset + size wraps past 2^64 to a small number: the check must not
  // be fooled into reading or writing far outside the image.
  RamDisk disk("d0", 64 * 1024, nullptr);
  const std::uint64_t offset = std::numeric_limits<std::uint64_t>::max() - 7;
  Bytes buf(16);
  EXPECT_EQ(disk.Read(offset, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.Write(offset, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.stats().reads, 0u);
  EXPECT_EQ(disk.stats().writes, 0u);
}

TEST(RamDiskTest, FreshDiskReadsZero) {
  RamDisk disk("d0", 512, nullptr);
  Bytes out(512, 0xff);
  ASSERT_TRUE(disk.Read(0, out).ok());
  for (std::uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(RamDiskTest, SnapshotRestoreRoundTrip) {
  RamDisk disk("d0", 2048, nullptr);
  ASSERT_TRUE(disk.Write(0, AsBytes("state-one")).ok());
  const DeviceSnapshot snapshot = disk.SnapshotContents();
  ASSERT_TRUE(disk.Write(0, AsBytes("state-two")).ok());
  ASSERT_TRUE(disk.RestoreContents(snapshot).ok());
  Bytes out(9);
  ASSERT_TRUE(disk.Read(0, out).ok());
  EXPECT_EQ(AsString(out), "state-one");
}

TEST(RamDiskTest, RestoreRejectsWrongSize) {
  RamDisk disk("d0", 2048, nullptr);
  EXPECT_EQ(disk.RestoreContents(DeviceSnapshot{BlockImage(100), {}}).error(),
            Errno::kEINVAL);
  // Right size, but a crash recorder's snapshot: not a RAM disk's.
  CrashableDisk crash(std::make_shared<RamDisk>("d1", 2048, nullptr));
  EXPECT_EQ(disk.RestoreContents(crash.SnapshotContents()).error(),
            Errno::kEINVAL);
}

TEST(RamDiskTest, ChargesSimTime) {
  SimClock clock;
  RamDisk disk("d0", 1 << 20, &clock);
  ASSERT_TRUE(disk.Write(0, Bytes(4096)).ok());
  const SimClock::Nanos after_write = clock.now();
  EXPECT_GT(after_write, 0u);
  // 25 us per request plus 4 KB at 2 GB/s.
  EXPECT_EQ(after_write, 25'000u + 2'048u);
  Bytes out(4096);
  ASSERT_TRUE(disk.Read(0, out).ok());
  EXPECT_GT(clock.now(), after_write);
  EXPECT_EQ(clock.now(), 2 * after_write);
}

// The simulated cost of device capture is one full-device pass, however
// little the host copies: 1.2 ms plus 16 MB at 700 MB/s, per capture and
// per restore.
TEST(RamDiskTest, CaptureAndRestoreChargeAFullDevicePass) {
  constexpr std::uint64_t kBytes = 16ull << 20;
  const RamDiskOptions options;
  const SimClock::Nanos pass =
      options.snapshot_base_latency +
      kBytes * 1'000'000'000ULL / options.snapshot_bandwidth_bytes_per_s;
  EXPECT_EQ(pass, 1'200'000u + 23'967'451u);

  SimClock clock;
  RamDisk disk("xfs", kBytes, &clock);
  const DeviceSnapshot snapshot = disk.SnapshotContents();
  EXPECT_EQ(clock.now(), pass);
  ASSERT_TRUE(disk.RestoreContents(snapshot).ok());
  EXPECT_EQ(clock.now(), 2 * pass);
  // A rejected restore charges nothing.
  EXPECT_EQ(disk.RestoreContents(DeviceSnapshot{BlockImage(100), {}}).error(),
            Errno::kEINVAL);
  EXPECT_EQ(clock.now(), 2 * pass);
  EXPECT_EQ(disk.stats().reads + disk.stats().writes, 0u);
}

TEST(RamDiskTest, NeverWrittenBlocksCostNothing) {
  RamDisk disk("xfs", 16ull << 20, nullptr);
  EXPECT_EQ(disk.SnapshotContents().image.allocated_blocks(), 0u);
  // A write allocates only the blocks it touches: this one straddles a
  // block boundary.
  ASSERT_TRUE(disk.Write(kCowBlockSize - 2, AsBytes("abcd")).ok());
  const DeviceSnapshot snapshot = disk.SnapshotContents();
  EXPECT_EQ(snapshot.image.allocated_blocks(), 2u);
  EXPECT_EQ(snapshot.size(), 16ull << 20);
  Bytes out(8, 0xff);
  ASSERT_TRUE(disk.Read(kCowBlockSize - 4, out).ok());
  EXPECT_EQ(out, (Bytes{0, 0, 'a', 'b', 'c', 'd', 0, 0}));

  // Zeros cost nothing either: a whole block of them frees the block,
  // and a fill of them (mkfs, a free-space fill file) allocates none.
  ASSERT_TRUE(disk.Write(0, Bytes(kCowBlockSize, 0)).ok());
  ASSERT_TRUE(disk.Write(1 << 20, Bytes(8 << 20, 0)).ok());
  EXPECT_EQ(disk.SnapshotContents().image.allocated_blocks(), 1u);
  ASSERT_TRUE(disk.Read(kCowBlockSize - 4, out).ok());
  EXPECT_EQ(out, (Bytes{0, 0, 0, 0, 'c', 'd', 0, 0}));
  // The earlier snapshot still holds both blocks as they were.
  EXPECT_EQ(snapshot.image.allocated_blocks(), 2u);
  snapshot.image.Read(kCowBlockSize - 4, out);
  EXPECT_EQ(out, (Bytes{0, 0, 'a', 'b', 'c', 'd', 0, 0}));
}

// Seeded differential: random writes, reads, snapshots, restores and
// dropped snapshots on a RamDisk whose size is not a multiple of the
// 4 KB block, against a flat byte model. After every step the device
// reads back equal to the model, every live snapshot still equals the
// image it was taken from (no later write leaks into it), and a
// wrong-size restore is rejected without changing anything.
TEST(RamDiskDifferential, MatchesFlatModel) {
  constexpr std::uint64_t kBytes = 10'000;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    RamDisk disk("d0", kBytes, nullptr);
    Bytes model(kBytes, 0);
    std::map<int, std::pair<DeviceSnapshot, Bytes>> snapshots;
    int next_id = 0;
    for (int step = 0; step < 300; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const std::uint64_t pick = rng.Below(100);
      if (pick < 40) {
        // Writes up to 9 KB, so many straddle one or two block boundaries;
        // a third are zeros, which free whole blocks they cover.
        const std::uint64_t offset = rng.Below(kBytes);
        Bytes data(1 + rng.Below(std::min<std::uint64_t>(9'000,
                                                         kBytes - offset)));
        if (rng.Below(3) != 0) {
          for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
        }
        ASSERT_TRUE(disk.Write(offset, data).ok()) << where;
        std::copy(data.begin(), data.end(), model.begin() + offset);
      } else if (pick < 55) {
        const std::uint64_t offset = rng.Below(kBytes + 1);
        Bytes out(rng.Below(kBytes - offset + 1));
        ASSERT_TRUE(disk.Read(offset, out).ok()) << where;
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               model.begin() + offset))
            << where;
      } else if (pick < 70) {
        snapshots[next_id++] = {disk.SnapshotContents(), model};
      } else if (pick < 85 && !snapshots.empty()) {
        auto it = std::next(snapshots.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng.Below(snapshots.size())));
        ASSERT_TRUE(disk.RestoreContents(it->second.first).ok()) << where;
        model = it->second.second;
      } else if (!snapshots.empty()) {
        snapshots.erase(std::next(snapshots.begin(),
                                  static_cast<std::ptrdiff_t>(
                                      rng.Below(snapshots.size()))));
      }

      const std::uint64_t wrong = rng.Below(2) == 0 ? kBytes - 1 : kBytes + 1;
      EXPECT_EQ(disk.RestoreContents(DeviceSnapshot{BlockImage(wrong), {}})
                    .error(),
                Errno::kEINVAL)
          << where;
      Bytes all(kBytes);
      ASSERT_TRUE(disk.Read(0, all).ok()) << where;
      ASSERT_EQ(all, model) << where;
      EXPECT_EQ(disk.SnapshotContents().image.ToBytes(), model) << where;
      for (const auto& [id, snap] : snapshots) {
        ASSERT_EQ(snap.first.image.ToBytes(), snap.second)
            << where << " snapshot " << id;
      }
    }
  }
}

TEST(RamDiskTest, ErrorInjection) {
  RamDisk disk("d0", 1024, nullptr);
  disk.InjectIoErrors(2);
  Bytes buf(16);
  EXPECT_EQ(disk.Read(0, buf).error(), Errno::kEIO);
  EXPECT_EQ(disk.Write(0, buf).error(), Errno::kEIO);
  EXPECT_TRUE(disk.Read(0, buf).ok());  // injection exhausted
}

TEST(RamDiskFactoryTest, BrdEnforcesUniformSize) {
  // Stock brd: all RAM disks share one size; the paper patched it into
  // brd2 to lift that restriction (§4).
  RamDiskFactory brd = RamDiskFactory::Brd(256 * 1024, nullptr);
  EXPECT_TRUE(brd.Create("ram0", 256 * 1024).ok());
  EXPECT_EQ(brd.Create("ram1", 16 * 1024 * 1024).error(), Errno::kEINVAL);

  RamDiskFactory brd2 = RamDiskFactory::Brd2(nullptr);
  EXPECT_TRUE(brd2.Create("ram0", 256 * 1024).ok());
  EXPECT_TRUE(brd2.Create("ram1", 16 * 1024 * 1024).ok());
}

// ---------------------------------------------------------------------------
// Latency decorators

// A capture on a LatencyDisk charges its own full-device read on top of
// the RAM disk's pass; a restore from a fresh head (no seek) charges a
// full-device write on top of it.
TEST(LatencyDiskTest, CaptureAndRestoreChargeExactly) {
  constexpr std::uint64_t kBytes = 16ull << 20;
  const RamDiskOptions ram_options;
  const SimClock::Nanos ram_pass =
      ram_options.snapshot_base_latency +
      kBytes * 1'000'000'000ULL / ram_options.snapshot_bandwidth_bytes_per_s;
  // HDD: 1.3 ms + 16 MB at 160 MB/s. SSD: 2 ms + 16 MB at 400 MB/s.
  for (const auto& [profile, own] :
       {std::pair{LatencyProfile::Hdd(), SimClock::Nanos{1'300'000 +
                                                         104'857'600}},
        std::pair{LatencyProfile::Ssd(),
                  SimClock::Nanos{2'000'000 + 41'943'040}}}) {
    SimClock clock;
    auto ram = std::make_shared<RamDisk>("d", kBytes, &clock);
    LatencyDisk disk(ram, profile, &clock);
    const DeviceSnapshot snapshot = disk.SnapshotContents();
    EXPECT_EQ(clock.now(), ram_pass + own);
    ASSERT_TRUE(disk.RestoreContents(snapshot).ok());
    EXPECT_EQ(clock.now(), 2 * (ram_pass + own));
  }
}

// Regression: a restore the inner device rejects used to charge the
// clock and move the head first.
TEST(LatencyDiskTest, RejectedRestoreChargesNothing) {
  for (const LatencyProfile& profile :
       {LatencyProfile::Hdd(), LatencyProfile::Ssd()}) {
    SimClock clock;
    auto ram = std::make_shared<RamDisk>("d", 64 * 1024, nullptr);
    LatencyDisk disk(ram, profile, &clock);
    EXPECT_EQ(
        disk.RestoreContents(DeviceSnapshot{BlockImage(32 * 1024), {}})
            .error(),
        Errno::kEINVAL);
    EXPECT_EQ(clock.now(), 0u);
    // The head is still at 0: a 512-byte read there pays no seek.
    Bytes buf(512);
    ASSERT_TRUE(disk.Read(0, buf).ok());
    EXPECT_EQ(clock.now(),
              profile.base_latency +
                  512 * 1'000'000'000ULL / profile.bandwidth_bytes_per_s);
  }
}

TEST(LatencyDiskTest, HddIsSlowerThanSsdIsSlowerThanRam) {
  // Scattered small sync writes: the access pattern the remount-heavy
  // checking workload produces (seeks dominate on the HDD).
  auto elapsed = [](const char* kind) {
    SimClock clock;
    auto ram = std::make_shared<RamDisk>("d", 64 << 20, &clock);
    BlockDevicePtr dev = ram;
    if (std::string(kind) == "hdd") {
      dev = std::make_shared<LatencyDisk>(ram, LatencyProfile::Hdd(),
                                          &clock);
    } else if (std::string(kind) == "ssd") {
      dev = std::make_shared<LatencyDisk>(ram, LatencyProfile::Ssd(),
                                          &clock);
    }
    Bytes buf(512);
    for (int i = 0; i < 50; ++i) {
      // Alternate between the device's ends to force long seeks.
      const std::uint64_t offset =
          (i % 2 == 0) ? static_cast<std::uint64_t>(i) * 4096
                       : (64ull << 20) - 4096 * (i + 1);
      EXPECT_TRUE(dev->Write(offset, buf).ok());
    }
    return clock.now();
  };
  const auto ram_time = elapsed("ram");
  const auto ssd_time = elapsed("ssd");
  const auto hdd_time = elapsed("hdd");
  EXPECT_GT(ssd_time, ram_time * 10);
  EXPECT_GT(hdd_time, ssd_time * 2);
}

TEST(LatencyDiskTest, SeekCostDependsOnDistance) {
  SimClock clock;
  auto ram = std::make_shared<RamDisk>("d", 64 << 20, nullptr);
  LatencyDisk hdd(ram, LatencyProfile::Hdd(), &clock);
  Bytes buf(512);

  // Sequential access near the current head position.
  ASSERT_TRUE(hdd.Read(0, buf).ok());
  const SimClock::Nanos t0 = clock.now();
  ASSERT_TRUE(hdd.Read(512, buf).ok());
  const SimClock::Nanos sequential = clock.now() - t0;

  // Full-stroke seek.
  const SimClock::Nanos t1 = clock.now();
  ASSERT_TRUE(hdd.Read((64 << 20) - 512, buf).ok());
  const SimClock::Nanos far_seek = clock.now() - t1;
  EXPECT_GT(far_seek, sequential * 3);
}

TEST(LatencyDiskTest, PassesDataThrough) {
  auto ram = std::make_shared<RamDisk>("d", 4096, nullptr);
  LatencyDisk ssd(ram, LatencyProfile::Ssd(), nullptr);
  ASSERT_TRUE(ssd.Write(10, AsBytes("hello")).ok());
  Bytes out(5);
  ASSERT_TRUE(ssd.Read(10, out).ok());
  EXPECT_EQ(AsString(out), "hello");
  EXPECT_EQ(ssd.SnapshotContents().image, ram->SnapshotContents().image);
}

// ---------------------------------------------------------------------------
// MTD flash

TEST(MtdDeviceTest, EraseProgramsDiscipline) {
  MtdDevice mtd("mtd0", 64 * 1024, nullptr);
  // Fresh flash is erased: all 0xff.
  Bytes out(4);
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out, Bytes(4, 0xff));

  // Programming clears bits.
  ASSERT_TRUE(mtd.Program(0, Bytes{0x0f, 0xf0}).ok());
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out[0], 0x0f);
  EXPECT_EQ(out[1], 0xf0);

  // Re-programming can only clear further bits; setting bits fails.
  EXPECT_EQ(mtd.Program(0, Bytes{0xff}).error(), Errno::kEIO);
  EXPECT_TRUE(mtd.Program(0, Bytes{0x0e}).ok());  // 0x0f & 0x0e

  // Erase resets the whole block to 0xff.
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(out, Bytes(4, 0xff));
  EXPECT_EQ(mtd.erase_count(0), 1u);
}

TEST(MtdDeviceTest, WrappingOffsetIsEio) {
  MtdDevice mtd("mtd0", 64 * 1024, nullptr);
  const std::uint64_t offset = std::numeric_limits<std::uint64_t>::max() - 7;
  Bytes buf(16, 0);
  EXPECT_EQ(mtd.Read(offset, buf).error(), Errno::kEIO);
  EXPECT_EQ(mtd.Program(offset, buf).error(), Errno::kEIO);
}

TEST(MtdDeviceTest, EraseBlockBounds) {
  MtdDevice mtd("mtd0", 64 * 1024, nullptr);  // 4 blocks of 16 KB
  EXPECT_EQ(mtd.erase_block_count(), 4u);
  EXPECT_TRUE(mtd.EraseBlock(3).ok());
  EXPECT_EQ(mtd.EraseBlock(4).error(), Errno::kEINVAL);
}

TEST(MtdBlockShimTest, WriteDoesEraseModifyProgram) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  MtdBlockShim shim(mtd);

  // Write arbitrary data twice to the same place: the shim must handle
  // the erase cycle transparently (a raw Program would fail).
  ASSERT_TRUE(shim.Write(100, AsBytes("first")).ok());
  ASSERT_TRUE(shim.Write(100, AsBytes("second")).ok());
  Bytes out(6);
  ASSERT_TRUE(shim.Read(100, out).ok());
  EXPECT_EQ(AsString(out), "second");
  EXPECT_GE(mtd->erase_count(0), 2u);
}

TEST(MtdBlockShimTest, WriteSpanningEraseBlocks) {
  auto mtd = std::make_shared<MtdDevice>("mtd0", 64 * 1024, nullptr);
  MtdBlockShim shim(mtd);
  const Bytes big(20 * 1024, 0x5a);  // crosses a 16 KB erase block
  ASSERT_TRUE(shim.Write(10 * 1024, big).ok());
  Bytes out(big.size());
  ASSERT_TRUE(shim.Read(10 * 1024, out).ok());
  EXPECT_EQ(out, big);
}

TEST(MtdDeviceTest, SnapshotRestore) {
  MtdDevice mtd("mtd0", 32 * 1024, nullptr);
  ASSERT_TRUE(mtd.Program(0, AsBytes("abc")).ok());
  const DeviceSnapshot snapshot = mtd.SnapshotContents();
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  ASSERT_TRUE(mtd.RestoreContents(snapshot).ok());
  Bytes out(3);
  ASSERT_TRUE(mtd.Read(0, out).ok());
  EXPECT_EQ(AsString(out), "abc");
}

TEST(MtdDeviceTest, ChargesEraseLatency) {
  SimClock clock;
  MtdDevice mtd("mtd0", 32 * 1024, &clock);
  Bytes buf(16);
  ASSERT_TRUE(mtd.Read(0, buf).ok());
  const SimClock::Nanos read_cost = clock.now();
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  EXPECT_GT(clock.now() - read_cost, read_cost);  // erase >> read
}

// ---------------------------------------------------------------------------
// Block image fill

TEST(BlockImageTest, NullBlocksReadAsTheFill) {
  const BlockImage erased(10'000, 0xff);
  EXPECT_EQ(erased.fill(), 0xff);
  EXPECT_EQ(erased.allocated_blocks(), 0u);
  Bytes out(10'000, 0);
  erased.Read(0, out);
  EXPECT_EQ(out, Bytes(10'000, 0xff));
  const ByteView last = erased.Block(2);
  EXPECT_EQ(Bytes(last.begin(), last.end()),
            Bytes(10'000 - 2 * kCowBlockSize, 0xff));
  EXPECT_EQ(erased.ToBytes(), Bytes(10'000, 0xff));
}

TEST(BlockImageTest, FillWritesAllocateNothingAndFreeWholeBlocks) {
  BlockImage image(3 * kCowBlockSize, 0xff);
  // A partial write of the fill leaves its null block null.
  image.Write(100, Bytes(10, 0xff));
  EXPECT_EQ(image.allocated_blocks(), 0u);
  // Any other byte allocates the block, set to the fill around it.
  image.Write(kCowBlockSize + 10, Bytes{0x12, 0x34});
  EXPECT_EQ(image.allocated_blocks(), 1u);
  Bytes out(4);
  image.Read(kCowBlockSize + 9, out);
  EXPECT_EQ(out, (Bytes{0xff, 0x12, 0x34, 0xff}));
  // A partial fill write to an allocated block keeps it allocated...
  image.Write(kCowBlockSize + 10, Bytes(2, 0xff));
  EXPECT_EQ(image.allocated_blocks(), 1u);
  // ...and a whole-block fill write frees it.
  image.Write(kCowBlockSize, Bytes(kCowBlockSize, 0xff));
  EXPECT_EQ(image.allocated_blocks(), 0u);
  // Zeros are data on a 0xff fill: a whole block of them is allocated.
  image.Write(0, Bytes(kCowBlockSize, 0));
  EXPECT_EQ(image.allocated_blocks(), 1u);
}

TEST(BlockImageTest, EqualityIsContentAcrossFills) {
  constexpr std::uint64_t kBytes = 2 * kCowBlockSize + 100;
  const BlockImage erased(kBytes, 0xff);
  const BlockImage zeros(kBytes);
  EXPECT_FALSE(erased == zeros);  // both all-null, different bytes
  BlockImage ones_on_zero(kBytes);
  ones_on_zero.Write(0, Bytes(kBytes, 0xff));
  EXPECT_EQ(ones_on_zero.allocated_blocks(), 3u);
  EXPECT_TRUE(erased == ones_on_zero);
  EXPECT_TRUE(ones_on_zero == erased);
  ones_on_zero.Write(kBytes - 1, Bytes{0xfe});
  EXPECT_FALSE(erased == ones_on_zero);
  BlockImage zeros_on_ones(kBytes, 0xff);
  zeros_on_ones.Write(0, Bytes(kBytes, 0));
  EXPECT_TRUE(zeros == zeros_on_ones);
}

// SharedPrefixBytes: how far two images agree, the key of jffs2f's replay
// memo. Pointer-equal blocks and same-fill null blocks are equal unread;
// every other block is compared by content.
TEST(BlockImageTest, SharedPrefixComparesBytesNotBlockPointers) {
  constexpr std::uint64_t kBytes = 3 * kCowBlockSize;
  BlockImage base(kBytes, 0xff);
  Rng rng(11);
  Bytes data(kBytes - 500);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.Next());
  base.Write(0, data);

  // Shared blocks, and null against null (the tail) on one fill.
  const BlockImage copy = base;
  EXPECT_EQ(SharedPrefixBytes(base, copy), kBytes);
  EXPECT_EQ(SharedPrefixBytes(BlockImage(kBytes, 0xff),
                              BlockImage(kBytes, 0xff)),
            kBytes);
  // Null on different fills differs at the first byte.
  EXPECT_EQ(SharedPrefixBytes(BlockImage(kBytes, 0xff), BlockImage(kBytes)),
            0u);

  // A clone that differs only in its last byte.
  BlockImage clone = base;
  clone.Write(kBytes - 1, Bytes{0x00});
  EXPECT_EQ(SharedPrefixBytes(base, clone), kBytes - 1);
  EXPECT_EQ(SharedPrefixBytes(clone, base), kBytes - 1);
  // A clone that holds the same bytes as the block it replaced.
  BlockImage same = base;
  same.Write(kCowBlockSize, Bytes{data[kCowBlockSize]});
  EXPECT_EQ(SharedPrefixBytes(base, same), kBytes);

  // Null against a written block of fill bytes: equal bytes.
  const BlockImage erased(kBytes, 0xff);
  BlockImage written(kBytes, 0xff);
  written.Write(kCowBlockSize + 7, Bytes{0x00});
  written.Write(kCowBlockSize + 7, Bytes{0xff});
  ASSERT_EQ(written.allocated_blocks(), 1u);
  EXPECT_EQ(SharedPrefixBytes(erased, written), kBytes);
  written.Write(kCowBlockSize + 9, Bytes{0x7f});
  EXPECT_EQ(SharedPrefixBytes(erased, written), kCowBlockSize + 9);

  // Images of different sizes agree at most up to the shorter one.
  BlockImage shorter(kBytes - 100, 0xff);
  shorter.Write(0, ByteView(data).first(kBytes - 600));
  EXPECT_EQ(SharedPrefixBytes(base, shorter), kBytes - 600);
  shorter.Write(kBytes - 600, ByteView(data).subspan(kBytes - 600));
  EXPECT_EQ(SharedPrefixBytes(base, shorter), kBytes - 100);
  EXPECT_EQ(SharedPrefixBytes(shorter, base), kBytes - 100);
  EXPECT_EQ(SharedPrefixBytes(base, BlockImage()), 0u);
}

// ---------------------------------------------------------------------------
// Charge-only scans: Scan(offset, n) must fail, count and charge exactly
// as Read(offset, n bytes) does on the same device in the same state, and
// leave it in the same state for the next call (the HDD head, an
// injected fault's countdown).

struct ScanRig {
  SimClock clock;
  std::shared_ptr<RamDisk> ram;  // null on the MTD rig
  BlockDevicePtr dev;
};

enum class ScanDevice { kRam, kHdd, kSsd, kCrashable, kMtdShim };

std::string_view ScanDeviceName(ScanDevice kind) {
  switch (kind) {
    case ScanDevice::kRam: return "ram";
    case ScanDevice::kHdd: return "hdd";
    case ScanDevice::kSsd: return "ssd";
    case ScanDevice::kCrashable: return "crashable";
    case ScanDevice::kMtdShim: return "mtd shim";
  }
  return "?";
}

constexpr std::uint64_t kScanBytes = 256 * 1024;

std::unique_ptr<ScanRig> MakeScanRig(ScanDevice kind) {
  auto rig = std::make_unique<ScanRig>();
  if (kind == ScanDevice::kMtdShim) {
    rig->dev = std::make_shared<MtdBlockShim>(
        std::make_shared<MtdDevice>("mtd", kScanBytes, &rig->clock));
  } else {
    rig->ram = std::make_shared<RamDisk>("d", kScanBytes, &rig->clock);
    rig->dev = rig->ram;
    if (kind == ScanDevice::kHdd || kind == ScanDevice::kSsd) {
      rig->dev = std::make_shared<LatencyDisk>(
          rig->ram,
          kind == ScanDevice::kHdd ? LatencyProfile::Hdd()
                                   : LatencyProfile::Ssd(),
          &rig->clock);
    } else if (kind == ScanDevice::kCrashable) {
      rig->dev = std::make_shared<CrashableDisk>(rig->ram);
    }
  }
  // Some contents, and the HDD head away from 0.
  EXPECT_TRUE(rig->dev->Write(100 * 1024, Bytes(5000, 0x5a)).ok());
  return rig;
}

void ExpectSameStats(const DeviceStats& a, const DeviceStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.flushes, b.flushes) << where;
}

TEST(BlockDeviceScanTest, ScanFailsCountsAndChargesExactlyAsRead) {
  struct Case {
    const char* name;
    std::uint64_t offset;
    std::uint64_t n;
    bool inject_fault;
  };
  const std::vector<Case> cases = {
      {"in range", 64 * 1024, 64 * 1024, false},
      {"whole device", 0, kScanBytes, false},
      {"empty", 1000, 0, false},
      {"past the end", kScanBytes - 10, 64, false},
      {"wrapping offset", std::numeric_limits<std::uint64_t>::max() - 7, 16,
       false},
      {"injected fault", 0, 4096, true},
  };
  for (ScanDevice kind : {ScanDevice::kRam, ScanDevice::kHdd, ScanDevice::kSsd,
                          ScanDevice::kCrashable, ScanDevice::kMtdShim}) {
    for (const Case& c : cases) {
      if (c.inject_fault && kind == ScanDevice::kMtdShim) continue;
      const std::string where = std::string(ScanDeviceName(kind)) + ", " +
                                c.name;
      auto read_rig = MakeScanRig(kind);
      auto scan_rig = MakeScanRig(kind);
      if (c.inject_fault) {
        read_rig->ram->InjectIoErrors(1);
        scan_rig->ram->InjectIoErrors(1);
      }
      const SimClock::Nanos read_t0 = read_rig->clock.now();
      const SimClock::Nanos scan_t0 = scan_rig->clock.now();
      Bytes buf(c.n);
      const Status read = read_rig->dev->Read(c.offset, buf);
      const Status scan = scan_rig->dev->Scan(c.offset, c.n);
      EXPECT_EQ(scan.error(), read.error()) << where;
      EXPECT_EQ(scan_rig->clock.now() - scan_t0,
                read_rig->clock.now() - read_t0)
          << where;
      ExpectSameStats(scan_rig->dev->stats(), read_rig->dev->stats(), where);
      // The next read sees the same device: same head, same fault count.
      Bytes next(512);
      EXPECT_TRUE(read_rig->dev->Read(200 * 1024, next).ok()) << where;
      EXPECT_TRUE(scan_rig->dev->Read(200 * 1024, next).ok()) << where;
      EXPECT_EQ(scan_rig->clock.now() - scan_t0,
                read_rig->clock.now() - read_t0)
          << where << ", next read";
    }
  }
}

// ---------------------------------------------------------------------------
// MTD differential: Program, EraseBlock, Read, snapshots and restores on
// an MtdDevice against a flat byte model of the flash, with the write
// observer's notifications checked too. Two geometries: the default
// 16 KB erase blocks, and 6 KB ones on a flash whose size is not a
// multiple of the 4 KB image block, so erases free some blocks and
// rewrite parts of others.

class RecordingObserver final : public MtdWriteObserver {
 public:
  void OnMtdWrite(std::uint64_t offset, ByteView after) override {
    writes.emplace_back(offset, Bytes(after.begin(), after.end()));
  }
  Status OnMtdBarrier() override { return Status::Ok(); }

  std::vector<std::pair<std::uint64_t, Bytes>> writes;
};

TEST(MtdDeviceTest, FreshAndFullyErasedFlashAllocatesNothing) {
  MtdDevice mtd("mtd0", 1024 * 1024, nullptr);
  EXPECT_EQ(mtd.SnapshotContents().image.allocated_blocks(), 0u);
  // Bytes 5000..13999 lie in image blocks 1..3.
  ASSERT_TRUE(mtd.Program(5000, Bytes(9000, 0x00)).ok());
  EXPECT_EQ(mtd.SnapshotContents().image.allocated_blocks(), 3u);
  ASSERT_TRUE(mtd.EraseBlock(0).ok());
  EXPECT_EQ(mtd.SnapshotContents().image.allocated_blocks(), 0u);
}

TEST(MtdDeviceDifferential, MatchesFlatErasedModel) {
  for (const auto& [erase_block, blocks] :
       {std::pair<std::uint32_t, std::uint64_t>{16 * 1024, 4},
        std::pair<std::uint32_t, std::uint64_t>{6 * 1024, 5}}) {
    MtdOptions options;
    options.erase_block_size = erase_block;
    const std::uint64_t kBytes = erase_block * blocks;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed);
      MtdDevice mtd("mtd0", kBytes, nullptr, options);
      RecordingObserver observer;
      mtd.set_write_observer(&observer);
      Bytes model(kBytes, 0xff);
      std::map<int, std::pair<DeviceSnapshot, Bytes>> snapshots;
      int next_id = 0;
      for (int step = 0; step < 300; ++step) {
        const std::string where = "erase block " + std::to_string(erase_block) +
                                  " seed " + std::to_string(seed) + " step " +
                                  std::to_string(step);
        observer.writes.clear();
        const std::uint64_t pick = rng.Below(100);
        if (pick < 40) {
          // Mostly legal programs (a random subset of the set bits), a
          // third arbitrary bytes, which need a 0 -> 1 flip unless the
          // range is still erased.
          const std::uint64_t offset = rng.Below(kBytes);
          Bytes data(1 + rng.Below(std::min<std::uint64_t>(9'000,
                                                           kBytes - offset)));
          const bool arbitrary = rng.Below(3) == 0;
          bool legal = true;
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<std::uint8_t>(rng.Next());
            if (!arbitrary) data[i] &= model[offset + i];
            legal = legal && (data[i] & ~model[offset + i]) == 0;
          }
          const Status s = mtd.Program(offset, data);
          if (legal) {
            ASSERT_TRUE(s.ok()) << where;
            std::copy(data.begin(), data.end(), model.begin() + offset);
            ASSERT_EQ(observer.writes.size(), 1u) << where;
            EXPECT_EQ(observer.writes[0].first, offset) << where;
            EXPECT_EQ(observer.writes[0].second, data) << where;
          } else {
            EXPECT_EQ(s.error(), Errno::kEIO) << where;
            EXPECT_TRUE(observer.writes.empty()) << where;
          }
        } else if (pick < 55) {
          const auto block = static_cast<std::uint32_t>(rng.Below(blocks + 1));
          const Status s = mtd.EraseBlock(block);
          if (block == blocks) {
            EXPECT_EQ(s.error(), Errno::kEINVAL) << where;
            EXPECT_TRUE(observer.writes.empty()) << where;
          } else {
            ASSERT_TRUE(s.ok()) << where;
            const std::uint64_t start = std::uint64_t{block} * erase_block;
            std::fill_n(model.begin() + start, erase_block, 0xff);
            ASSERT_EQ(observer.writes.size(), 1u) << where;
            EXPECT_EQ(observer.writes[0].first, start) << where;
            EXPECT_EQ(observer.writes[0].second, Bytes(erase_block, 0xff))
                << where;
          }
        } else if (pick < 65) {
          const std::uint64_t offset = rng.Below(kBytes + 1);
          Bytes out(rng.Below(kBytes - offset + 1));
          ASSERT_TRUE(mtd.Read(offset, out).ok()) << where;
          EXPECT_TRUE(std::equal(out.begin(), out.end(),
                                 model.begin() + offset))
              << where;
        } else if (pick < 78) {
          snapshots[next_id++] = {mtd.SnapshotContents(), model};
        } else if (pick < 90 && !snapshots.empty()) {
          auto it = std::next(snapshots.begin(),
                              static_cast<std::ptrdiff_t>(
                                  rng.Below(snapshots.size())));
          ASSERT_TRUE(mtd.RestoreContents(it->second.first).ok()) << where;
          model = it->second.second;
        } else if (!snapshots.empty()) {
          snapshots.erase(std::next(snapshots.begin(),
                                    static_cast<std::ptrdiff_t>(
                                        rng.Below(snapshots.size()))));
        }

        const std::uint64_t wrong =
            rng.Below(2) == 0 ? kBytes - kCowBlockSize : kBytes + 1;
        EXPECT_EQ(mtd.RestoreContents(
                         DeviceSnapshot{BlockImage(wrong, 0xff), {}})
                      .error(),
                  Errno::kEINVAL)
            << where;
        Bytes all(kBytes);
        ASSERT_TRUE(mtd.Read(0, all).ok()) << where;
        ASSERT_EQ(all, model) << where;
        for (const auto& [id, snap] : snapshots) {
          ASSERT_EQ(snap.first.image.ToBytes(), snap.second)
              << where << " snapshot " << id;
        }
      }
      mtd.set_write_observer(nullptr);
      // Erasing everything frees every block, whatever was shared.
      for (std::uint32_t b = 0; b < blocks; ++b) {
        ASSERT_TRUE(mtd.EraseBlock(b).ok());
      }
      const BlockImage erased = mtd.SnapshotContents().image;
      if (kBytes % kCowBlockSize == 0) {
        EXPECT_EQ(erased.allocated_blocks(), 0u);
      }
      EXPECT_TRUE(erased == BlockImage(kBytes, 0xff));
    }
  }
}

}  // namespace
}  // namespace mcfs::storage
