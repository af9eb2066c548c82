// Cache-incoherency reproductions — paper §3.2.
//
// The paper's central negative result: restoring a file system's
// persistent state while kernel memory still describes the old world
// corrupts the view ("directory entries with corrupted or zeroed
// inodes"). These tests reproduce the failure end-to-end through the
// harness (kMountOnce strategy), show that fsync/sync-style flushing
// does NOT fix it (flushing is one-directional), and that the two real
// fixes — remount-per-op and the VeriFS ioctls with kernel notification —
// both do.
#include <gtest/gtest.h>

#include "fs/ext2/ext2fs.h"
#include "mcfs/harness.h"
#include "storage/ram_disk.h"

namespace mcfs::core {
namespace {

McfsConfig PairConfig(StateStrategy strategy) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kExt2;
  config.fs_b.kind = FsKind::kExt4;
  config.fs_a.strategy = strategy;
  config.fs_b.strategy = strategy;
  config.engine.pool = ParameterPool::Tiny();
  config.explore.max_operations = 600;
  config.explore.max_depth = 5;
  config.explore.seed = 21;
  return config;
}

TEST(IncoherencyTest, MountOnceStrategyCorruptsKernelFileSystems) {
  // Restore-under-a-live-mount: exploration must observe corruption or a
  // spurious discrepancy fairly quickly (the paper hit "corrupted or
  // zeroed inodes" with exactly this setup). A small block cache forces
  // eviction, so the post-restore view genuinely mixes old-world cached
  // blocks with new-world disk blocks.
  McfsConfig config = PairConfig(StateStrategy::kMountOnce);
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 3000;
  config.explore.max_depth = 6;
  config.fs_a.block_cache_capacity = 1;
  config.fs_b.block_cache_capacity = 1;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_TRUE(report.stats.violation_found);
  EXPECT_GT(report.counters.corruption_events +
                report.counters.discrepancies,
            0u);
}

TEST(IncoherencyTest, RemountStrategyStaysCoherent) {
  auto mcfs = Mcfs::Create(PairConfig(StateStrategy::kRemountPerOp));
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.Summary();
  EXPECT_EQ(report.counters.corruption_events, 0u);
}

TEST(IncoherencyTest, FlushingDoesNotSubstituteForRemount) {
  // §3.2: fsync/sync guarantee caches reach the disk, "but they did not
  // implement the opposite operation — loading any Spin-initiated change
  // in the persistent storage back into the in-memory caches."
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  auto ext2 = std::make_shared<fs::Ext2Fs>(disk);
  vfs::Vfs v(ext2, nullptr);
  ASSERT_TRUE(ext2->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());

  // Write /f and flush EVERYTHING so the on-disk image is current.
  auto fd = v.Open("/f", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 0, AsBytes("flushed")).ok());
  ASSERT_TRUE(v.Fsync(fd.value()).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
  const storage::DeviceSnapshot snapshot_with_f = disk->SnapshotContents();

  // Delete /f, flush again.
  ASSERT_TRUE(v.Unlink("/f").ok());
  auto fd2 = v.Open("/g", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(v.Fsync(fd2.value()).ok());
  ASSERT_TRUE(v.Close(fd2.value()).ok());

  // Restore the earlier image under the live mount. The disk now says
  // /f exists and /g does not — but the caches disagree.
  ASSERT_TRUE(disk->RestoreContents(snapshot_with_f).ok());
  EXPECT_EQ(v.Stat("/f").error(), Errno::kENOENT);  // stale negative entry
  EXPECT_TRUE(v.Stat("/g").ok());                   // stale positive entry

  // Remount: the one operation that guarantees coherence.
  ASSERT_TRUE(v.Unmount().ok() || true);  // unmount flushes stale state...
  // ...which may itself scribble on the restored image — that is the
  // corruption mechanism. Restore again and mount cleanly:
  ASSERT_TRUE(disk->RestoreContents(snapshot_with_f).ok());
  if (v.IsMounted()) {
    ASSERT_TRUE(v.Unmount().ok());
  }
  ASSERT_TRUE(v.Mount().ok());
  EXPECT_TRUE(v.Stat("/f").ok());
  EXPECT_EQ(v.Stat("/g").error(), Errno::kENOENT);
}

TEST(IncoherencyTest, VerifsIoctlRestoreStaysCoherentUnderTheVfs) {
  // The paper's proposal: VeriFS restores notify the kernel, so no
  // incoherency ever builds up even without remounts.
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 2000;
  config.explore.max_depth = 7;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.Summary();
  EXPECT_EQ(report.counters.corruption_events, 0u);
  EXPECT_EQ(report.remounts_a + report.remounts_b, 0u);
}

TEST(IncoherencyTest, SkippedInvalidationReproducesHistoricalBug2) {
  // VeriFS1 with the invalidation fix reverted, checked against clean
  // VeriFS2: exploration must catch the stale-dcache behaviour.
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_a.bugs.skip_cache_invalidation_on_restore = true;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Tiny();
  config.explore.max_operations = 5000;
  config.explore.max_depth = 6;
  config.explore.seed = 3;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_TRUE(report.stats.violation_found)
      << "stale kernel caches should have produced a discrepancy\n"
      << report.Summary();
}

}  // namespace
}  // namespace mcfs::core
