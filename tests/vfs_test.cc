// VFS-layer tests: dentry/attr cache behaviour (hits answered without the
// file system, negative entries, invalidation), fd table semantics,
// remount cost accounting, and — critically — the §3.2 staleness hazard:
// caches serving a world that no longer exists after an under-the-mount
// restore.
#include <gtest/gtest.h>

#include "fs/ext2/ext2fs.h"
#include "storage/ram_disk.h"
#include "verifs/verifs2.h"
#include "vfs/vfs.h"

namespace mcfs::vfs {
namespace {

struct Stack {
  std::shared_ptr<storage::RamDisk> disk;
  fs::FileSystemPtr filesystem;
  std::unique_ptr<Vfs> vfs;
};

Stack MakeExt2Stack(SimClock* clock = nullptr, VfsOptions options = {}) {
  Stack stack;
  stack.disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, clock);
  stack.filesystem = std::make_shared<fs::Ext2Fs>(stack.disk);
  stack.vfs = std::make_unique<Vfs>(stack.filesystem, clock, options);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.vfs->Mount().ok());
  return stack;
}

void WriteViaVfs(Vfs& v, const std::string& path, std::string_view data) {
  auto fd = v.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
}

// ---------------------------------------------------------------------------
// Dentry cache mechanics

TEST(DentryCacheTest, PositiveNegativeAndInvalidation) {
  DentryCache cache;
  EXPECT_FALSE(cache.Lookup("/a").has_value());

  cache.InsertPositive("/a", 7);
  auto entry = cache.Lookup("/a");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, DentryCache::State::kPositive);
  EXPECT_EQ(entry->ino, 7u);

  cache.InsertNegative("/b");
  entry = cache.Lookup("/b");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, DentryCache::State::kNegative);

  cache.InvalidateEntry("/a");
  EXPECT_FALSE(cache.Lookup("/a").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(DentryCacheTest, InvalidateInodeDropsAllAliases) {
  DentryCache cache;
  cache.InsertPositive("/x", 9);
  cache.InsertPositive("/hardlink-to-x", 9);
  cache.InsertPositive("/other", 10);
  cache.InvalidateInode(9);
  EXPECT_FALSE(cache.Lookup("/x").has_value());
  EXPECT_FALSE(cache.Lookup("/hardlink-to-x").has_value());
  EXPECT_TRUE(cache.Lookup("/other").has_value());
}

TEST(DentryCacheTest, InvalidateSubtree) {
  DentryCache cache;
  cache.InsertPositive("/d", 1);
  cache.InsertPositive("/d/a", 2);
  cache.InsertPositive("/d/a/b", 3);
  cache.InsertPositive("/dx", 4);  // NOT under /d
  cache.InvalidateSubtree("/d");
  EXPECT_FALSE(cache.Lookup("/d").has_value());
  EXPECT_FALSE(cache.Lookup("/d/a").has_value());
  EXPECT_FALSE(cache.Lookup("/d/a/b").has_value());
  EXPECT_TRUE(cache.Lookup("/dx").has_value());
}

TEST(AttrCacheTest, InsertLookupInvalidate) {
  AttrCache cache;
  fs::InodeAttr attr;
  attr.ino = 5;
  attr.size = 123;
  cache.Insert(attr);
  auto hit = cache.Lookup(5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size, 123u);
  cache.Invalidate(5);
  EXPECT_FALSE(cache.Lookup(5).has_value());
}

// ---------------------------------------------------------------------------
// Vfs cache-mediated behaviour

TEST(VfsTest, StatIsServedFromCacheOnSecondCall) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/f", "x");
  ASSERT_TRUE(stack.vfs->Stat("/f").ok());  // miss: fills caches
  const std::uint64_t reads_before = stack.disk->stats().reads;
  ASSERT_TRUE(stack.vfs->Stat("/f").ok());  // hit: no FS involvement
  EXPECT_EQ(stack.disk->stats().reads, reads_before);
  EXPECT_GT(stack.vfs->dcache().stats().hits, 0u);
}

TEST(VfsTest, NegativeEntryShortCircuitsEnoent) {
  Stack stack = MakeExt2Stack();
  EXPECT_EQ(stack.vfs->Stat("/missing").error(), Errno::kENOENT);
  // The second lookup is answered by the negative dentry alone.
  auto entry = stack.vfs->dcache().Lookup("/missing");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, DentryCache::State::kNegative);
  EXPECT_EQ(stack.vfs->Stat("/missing").error(), Errno::kENOENT);
}

TEST(VfsTest, CreateClearsNegativeEntry) {
  Stack stack = MakeExt2Stack();
  EXPECT_EQ(stack.vfs->Stat("/f").error(), Errno::kENOENT);  // caches negative
  WriteViaVfs(*stack.vfs, "/f", "now exists");
  auto attr = stack.vfs->Stat("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 10u);
}

TEST(VfsTest, UnlinkInsertsNegativeEntry) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/f", "x");
  ASSERT_TRUE(stack.vfs->Unlink("/f").ok());
  auto entry = stack.vfs->dcache().Lookup("/f");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->state, DentryCache::State::kNegative);
  EXPECT_EQ(stack.vfs->Stat("/f").error(), Errno::kENOENT);
}

TEST(VfsTest, WriteInvalidatesCachedAttrs) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/f", "1234");
  auto before = stack.vfs->Stat("/f");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().size, 4u);

  auto fd = stack.vfs->Open("/f", fs::kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.vfs->Write(fd.value(), 4, AsBytes("5678")).ok());
  ASSERT_TRUE(stack.vfs->Close(fd.value()).ok());

  auto after = stack.vfs->Stat("/f");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size, 8u);  // not the stale 4
}

TEST(VfsTest, GetDentsWarmsChildEntries) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/a", "1");
  WriteViaVfs(*stack.vfs, "/b", "2");
  stack.vfs->DropCaches();
  ASSERT_TRUE(stack.vfs->GetDents("/").ok());
  EXPECT_TRUE(stack.vfs->dcache().Lookup("/a").has_value());
  EXPECT_TRUE(stack.vfs->dcache().Lookup("/b").has_value());
}

TEST(VfsTest, CachesDisabledPassThrough) {
  VfsOptions options;
  options.enable_caches = false;
  Stack stack = MakeExt2Stack(nullptr, options);
  WriteViaVfs(*stack.vfs, "/f", "x");
  ASSERT_TRUE(stack.vfs->Stat("/f").ok());
  ASSERT_TRUE(stack.vfs->Stat("/f").ok());
  EXPECT_EQ(stack.vfs->dcache().size(), 0u);
  EXPECT_EQ(stack.vfs->icache().size(), 0u);
}

TEST(VfsTest, FdTableBadFd) {
  Stack stack = MakeExt2Stack();
  EXPECT_EQ(stack.vfs->Close(1234).error(), Errno::kEBADF);
  EXPECT_EQ(stack.vfs->Read(1234, 0, 1).error(), Errno::kEBADF);
  EXPECT_EQ(stack.vfs->Write(1234, 0, AsBytes("x")).error(), Errno::kEBADF);
  EXPECT_EQ(stack.vfs->Fsync(1234).error(), Errno::kEBADF);
}

TEST(VfsTest, UnmountClearsFdsAndCaches) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/f", "x");
  auto fd = stack.vfs->Open("/f", fs::kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.vfs->Stat("/f").ok());
  EXPECT_GT(stack.vfs->dcache().size(), 0u);
  ASSERT_TRUE(stack.vfs->Unmount().ok());
  EXPECT_EQ(stack.vfs->dcache().size(), 0u);
  EXPECT_EQ(stack.vfs->open_fd_count(), 0u);
  ASSERT_TRUE(stack.vfs->Mount().ok());
  EXPECT_EQ(stack.vfs->Close(fd.value()).error(), Errno::kEBADF);
}

TEST(VfsTest, MountChargesSimTime) {
  SimClock clock;
  Stack stack = MakeExt2Stack(&clock);
  const SimClock::Nanos before = clock.now();
  ASSERT_TRUE(stack.vfs->Unmount().ok());
  ASSERT_TRUE(stack.vfs->Mount().ok());
  // mount + unmount cost at least the configured syscall-path overhead
  // (defaults: 100 us + 60 us; device reads charge on top).
  EXPECT_GE(clock.now() - before,
            VfsOptions{}.mount_cost + VfsOptions{}.unmount_cost);
}

// ---------------------------------------------------------------------------
// The §3.2 hazard: restoring state under a live mount

TEST(VfsStaleness, NegativeEntrySurvivesUnderlyingRestore) {
  Stack stack = MakeExt2Stack();
  // Cache "ENOENT" for /f, then create /f *behind the VFS's back* (as a
  // checker-initiated device restore effectively does).
  EXPECT_EQ(stack.vfs->Stat("/f").error(), Errno::kENOENT);
  auto fd = stack.filesystem->Open("/f", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.filesystem->Close(fd.value()).ok());

  // The VFS still answers from its stale negative dentry.
  EXPECT_EQ(stack.vfs->Stat("/f").error(), Errno::kENOENT);
  // Only an explicit invalidation (or remount) fixes it.
  stack.vfs->InvalEntry("/", "f");
  EXPECT_TRUE(stack.vfs->Stat("/f").ok());
}

TEST(VfsStaleness, PositiveEntryCausesSpuriousEexist) {
  // The exact §6 bug-2 shape: the FS rolls back to a state where the
  // directory does not exist, but the kernel's dcache still has it.
  auto verifs = std::make_shared<verifs::Verifs2>();
  Vfs v(verifs, nullptr);
  ASSERT_TRUE(verifs->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());

  auto snap = verifs->Checkpoint();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(v.Mkdir("/newdir", 0755).ok());
  ASSERT_TRUE(v.Stat("/newdir").ok());  // dcache now holds /newdir

  // Roll back WITHOUT notifications (no notifier wired): /newdir is gone
  // from the FS but not from the dcache.
  ASSERT_TRUE(verifs->Restore(snap.value()).ok());
  EXPECT_FALSE(verifs->GetAttr("/newdir").ok());

  // The spurious EEXIST: "VeriFS failed, claiming that the directory
  // existed — but in fact it did not" (paper §6).
  EXPECT_EQ(v.Mkdir("/newdir", 0755).error(), Errno::kEEXIST);

  // With the caches dropped, the same mkdir succeeds.
  v.DropCaches();
  EXPECT_TRUE(v.Mkdir("/newdir", 0755).ok());
}

TEST(VfsStaleness, RemountRestoresCoherence) {
  Stack stack = MakeExt2Stack();
  WriteViaVfs(*stack.vfs, "/f", "version-A");
  ASSERT_TRUE(stack.vfs->Unmount().ok());
  const storage::DeviceSnapshot snapshot = stack.disk->SnapshotContents();
  ASSERT_TRUE(stack.vfs->Mount().ok());

  ASSERT_TRUE(stack.vfs->Unlink("/f").ok());
  ASSERT_TRUE(stack.vfs->Stat("/f").error() == Errno::kENOENT);

  // Restore the device; with the paper's remount workaround the caches
  // come back coherent.
  ASSERT_TRUE(stack.vfs->Unmount().ok());
  ASSERT_TRUE(stack.disk->RestoreContents(snapshot).ok());
  ASSERT_TRUE(stack.vfs->Mount().ok());
  auto attr = stack.vfs->Stat("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 9u);
}

}  // namespace
}  // namespace mcfs::vfs
