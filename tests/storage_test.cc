// Unit tests for the storage substrates: RAM disk (brd/brd2 semantics),
// its copy-on-write block image (a seeded differential against a flat
// byte model), the exact simulated cost of device capture, HDD/SSD
// latency decorators, and the MTD flash device with its mtdblock-style
// shim.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <string>

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
  // Right size, but carrying a decorator's bookkeeping: not a RAM disk's.
  EXPECT_EQ(
      disk.RestoreContents(DeviceSnapshot{BlockImage(2048), Bytes(4)}).error(),
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

}  // namespace
}  // namespace mcfs::storage
