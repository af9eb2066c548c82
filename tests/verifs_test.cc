// VeriFS-specific tests: the checkpoint/restore ioctls (the paper's
// proposed APIs), the snapshot pool, VeriFS1's deliberate limitations,
// VeriFS2's additions, and checkpoint/restore round-trip properties under
// randomized operation sequences.
#include <gtest/gtest.h>

#include <type_traits>

#include "mcfs/fs_under_test.h"
#include "util/rng.h"
#include "verifs/snapshot_pool.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::verifs {
namespace {

void WriteAll(fs::FileSystem& f, const std::string& path,
              std::string_view data) {
  auto fd = f.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok()) << ErrnoName(fd.error());
  ASSERT_TRUE(f.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(f.Close(fd.value()).ok());
}

std::string ReadAll(fs::FileSystem& f, const std::string& path) {
  auto fd = f.Open(path, fs::kRdOnly, 0);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return {};
  auto data = f.Read(fd.value(), 0, 1 << 20);
  EXPECT_TRUE(data.ok());
  EXPECT_TRUE(f.Close(fd.value()).ok());
  return data.ok() ? std::string(AsString(data.value())) : std::string{};
}

// ---------------------------------------------------------------------------
// SnapshotPool

TEST(SnapshotPoolTest, AddAllocatesDistinctLiveHandles) {
  SnapshotPool<Bytes> pool;
  const fs::SnapshotId a = pool.Add({1, 2, 3});
  const fs::SnapshotId b = pool.Add({4, 5});
  EXPECT_NE(a, fs::kInvalidSnapshotId);
  EXPECT_NE(b, fs::kInvalidSnapshotId);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.count(), 2u);
  ASSERT_NE(pool.Find(a), nullptr);
  EXPECT_EQ(*pool.Find(a), (Bytes{1, 2, 3}));
}

TEST(SnapshotPoolTest, FindIsNonConsuming) {
  SnapshotPool<Bytes> pool;
  const fs::SnapshotId id = pool.Add({7, 8});
  ASSERT_NE(pool.Find(id), nullptr);
  ASSERT_NE(pool.Find(id), nullptr);  // a lookup must not take the entry
  EXPECT_EQ(pool.count(), 1u);
  EXPECT_EQ(pool.Find(id + 100), nullptr);
}

TEST(SnapshotPoolTest, DiscardFreesTheHandle) {
  SnapshotPool<Bytes> pool;
  const fs::SnapshotId id = pool.Add({9});
  EXPECT_TRUE(pool.Discard(id).ok());
  EXPECT_EQ(pool.Discard(id).error(), Errno::kENOENT);
  EXPECT_EQ(pool.count(), 0u);
  EXPECT_EQ(pool.Find(id), nullptr);
  // Handles are never recycled: a new Add cannot revive a stale id.
  EXPECT_NE(pool.Add({1}), id);
}

// ---------------------------------------------------------------------------
// VeriFS1: deliberate limitations (paper §5)

TEST(Verifs1Test, LacksTheVerifs2Features) {
  Verifs1 v1;
  ASSERT_TRUE(v1.Mkfs().ok());
  ASSERT_TRUE(v1.Mount().ok());
  EXPECT_FALSE(v1.Supports(fs::FsFeature::kRename));
  EXPECT_FALSE(v1.Supports(fs::FsFeature::kHardLink));
  EXPECT_FALSE(v1.Supports(fs::FsFeature::kSymlink));
  EXPECT_FALSE(v1.Supports(fs::FsFeature::kAccess));
  EXPECT_FALSE(v1.Supports(fs::FsFeature::kXattr));
  EXPECT_TRUE(v1.Supports(fs::FsFeature::kCheckpointRestore));

  WriteAll(v1, "/f", "x");
  EXPECT_EQ(v1.Rename("/f", "/g").error(), Errno::kENOTSUP);
  EXPECT_EQ(v1.Link("/f", "/g").error(), Errno::kENOTSUP);
  EXPECT_EQ(v1.Symlink("/f", "/g").error(), Errno::kENOTSUP);
  EXPECT_EQ(v1.Access("/f", fs::kROk).error(), Errno::kENOTSUP);
  EXPECT_EQ(v1.SetXattr("/f", "user.a", AsBytes("v")).error(),
            Errno::kENOTSUP);
}

TEST(Verifs1Test, FixedInodeArrayFillsUp) {
  Verifs1Options options;
  options.inode_count = 4;  // root + 3
  Verifs1 v1(options);
  ASSERT_TRUE(v1.Mkfs().ok());
  ASSERT_TRUE(v1.Mount().ok());
  ASSERT_TRUE(v1.Mkdir("/d1", 0755).ok());
  ASSERT_TRUE(v1.Mkdir("/d2", 0755).ok());
  ASSERT_TRUE(v1.Mkdir("/d3", 0755).ok());
  EXPECT_EQ(v1.Mkdir("/d4", 0755).error(), Errno::kENOSPC);
  // Freeing a slot makes room again (the array is fixed, not consumed).
  ASSERT_TRUE(v1.Rmdir("/d1").ok());
  EXPECT_TRUE(v1.Mkdir("/d4", 0755).ok());
}

TEST(Verifs1Test, NoDataLimit) {
  Verifs1 v1;
  ASSERT_TRUE(v1.Mkfs().ok());
  ASSERT_TRUE(v1.Mount().ok());
  // "It also did not limit the amount of data that could be stored" (§5):
  // a multi-megabyte write sails through.
  WriteAll(v1, "/big", std::string(4 * 1024 * 1024, 'b'));
  auto sv = v1.StatFs();
  ASSERT_TRUE(sv.ok());
  EXPECT_GT(sv.value().free_bytes, 1ull << 30);
}

// ---------------------------------------------------------------------------
// VeriFS2: quota

TEST(Verifs2Test, QuotaEnforced) {
  Verifs2Options options;
  options.max_total_bytes = 10 * 1024;
  Verifs2 v2(options);
  ASSERT_TRUE(v2.Mkfs().ok());
  ASSERT_TRUE(v2.Mount().ok());
  WriteAll(v2, "/a", std::string(8 * 1024, 'a'));
  auto fd = v2.Open("/b", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(v2.Write(fd.value(), 0, Bytes(4 * 1024, 'b')).error(),
            Errno::kENOSPC);
  ASSERT_TRUE(v2.Close(fd.value()).ok());
  // Deleting frees quota.
  ASSERT_TRUE(v2.Unlink("/a").ok());
  WriteAll(v2, "/b2", std::string(4 * 1024, 'c'));
}

TEST(Verifs2Test, TruncateGrowthCountsAgainstQuota) {
  Verifs2Options options;
  options.max_total_bytes = 4096;
  Verifs2 v2(options);
  ASSERT_TRUE(v2.Mkfs().ok());
  ASSERT_TRUE(v2.Mount().ok());
  WriteAll(v2, "/f", "x");
  EXPECT_EQ(v2.Truncate("/f", 1 << 20).error(), Errno::kENOSPC);
  EXPECT_TRUE(v2.Truncate("/f", 2048).ok());
}

// ---------------------------------------------------------------------------
// Checkpoint / restore semantics (both generations)

template <typename VerifsT>
class CheckpointSuite : public testing::Test {};

using VerifsTypes = testing::Types<Verifs1, Verifs2>;
TYPED_TEST_SUITE(CheckpointSuite, VerifsTypes);

TYPED_TEST(CheckpointSuite, RestoreRollsBackEverything) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  WriteAll(v, "/keep", "original");
  ASSERT_TRUE(v.Mkdir("/kept-dir", 0755).ok());
  auto snap = v.Checkpoint();
  ASSERT_TRUE(snap.ok());

  // Mutate in every dimension.
  WriteAll(v, "/keep", "MUTATED-LONGER-CONTENT");
  ASSERT_TRUE(v.Unlink("/keep").ok() || true);
  WriteAll(v, "/new-file", "should vanish");
  ASSERT_TRUE(v.Rmdir("/kept-dir").ok());
  ASSERT_TRUE(v.Chmod("/new-file", 0600).ok());

  ASSERT_TRUE(v.Restore(snap.value()).ok());
  EXPECT_EQ(ReadAll(v, "/keep"), "original");
  EXPECT_TRUE(v.GetAttr("/kept-dir").ok());
  EXPECT_EQ(v.GetAttr("/new-file").error(), Errno::kENOENT);
}

TYPED_TEST(CheckpointSuite, RestoreUnknownKeyIsEnoent) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  EXPECT_EQ(v.Restore(404).error(), Errno::kENOENT);
}

TYPED_TEST(CheckpointSuite, MultipleKeysCoexist) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  WriteAll(v, "/f", "state-A");
  auto a = v.Checkpoint();
  ASSERT_TRUE(a.ok());
  WriteAll(v, "/f", "state-B");
  auto b = v.Checkpoint();
  ASSERT_TRUE(b.ok());
  WriteAll(v, "/f", "state-C");

  ASSERT_TRUE(v.Restore(a.value()).ok());
  EXPECT_EQ(ReadAll(v, "/f"), "state-A");
  ASSERT_TRUE(v.Restore(b.value()).ok());
  EXPECT_EQ(ReadAll(v, "/f"), "state-B");
}

// Keyed checkpoints live on in FsUnderTest, which maps the explorer's
// keys to handles: saving under a live key replaces its snapshot and
// releases the old handle.
TYPED_TEST(CheckpointSuite, CheckpointOverwritesSameKey) {
  core::FsUnderTestConfig config;
  config.kind = std::is_same_v<TypeParam, Verifs1> ? core::FsKind::kVerifs1
                                                   : core::FsKind::kVerifs2;
  config.strategy = core::StateStrategy::kIoctl;
  config.fuse_transport = false;
  auto created = core::FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(created.ok());
  core::FsUnderTest& fut = *created.value();

  WriteAll(fut.inner(), "/f", "old");
  ASSERT_TRUE(fut.SaveState(1).ok());
  WriteAll(fut.inner(), "/f", "new");
  ASSERT_TRUE(fut.SaveState(1).ok());  // replaces
  EXPECT_EQ(fut.StateStats().count, 1u);
  WriteAll(fut.inner(), "/f", "newest");
  ASSERT_TRUE(fut.RestoreState(1).ok());
  EXPECT_EQ(ReadAll(fut.inner(), "/f"), "new");

  ASSERT_TRUE(fut.DiscardState(1).ok());
  EXPECT_EQ(fut.StateStats().count, 0u);
  EXPECT_EQ(fut.RestoreState(1).error(), Errno::kENOENT);
}

TYPED_TEST(CheckpointSuite, OpenHandlesDoNotSurviveRestore) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  WriteAll(v, "/f", "x");
  auto snap = v.Checkpoint();
  ASSERT_TRUE(snap.ok());
  auto fd = v.Open("/f", fs::kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Restore(snap.value()).ok());
  EXPECT_EQ(v.Read(fd.value(), 0, 1).error(), Errno::kEBADF);
}

TYPED_TEST(CheckpointSuite, IoctlsRequireMount) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  EXPECT_EQ(v.Checkpoint().error(), Errno::kEINVAL);
  EXPECT_EQ(v.Restore(1).error(), Errno::kEINVAL);
}

// Property: a randomized op sequence, checkpointed in the middle, always
// restores to byte-identical observable state.
TYPED_TEST(CheckpointSuite, RandomizedRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TypeParam v;
    ASSERT_TRUE(v.Mkfs().ok());
    ASSERT_TRUE(v.Mount().ok());
    Rng rng(seed);

    auto random_op = [&](fs::FileSystem& f) {
      const std::string path = "/p" + std::to_string(rng.Below(3));
      switch (rng.Below(5)) {
        case 0: {
          auto fd = f.Open(path, fs::kCreate | fs::kWrOnly, 0644);
          if (fd.ok()) {
            (void)f.Write(fd.value(), rng.Below(50),
                          Bytes(rng.Below(100), 'r'));
            (void)f.Close(fd.value());
          }
          break;
        }
        case 1:
          (void)f.Unlink(path);
          break;
        case 2:
          (void)f.Mkdir(path, 0755);
          break;
        case 3:
          (void)f.Rmdir(path);
          break;
        case 4:
          (void)f.Truncate(path, rng.Below(80));
          break;
      }
    };

    for (int i = 0; i < 30; ++i) random_op(v);
    auto snap = v.Checkpoint();
    ASSERT_TRUE(snap.ok());
    const Bytes reference = v.ExportState();
    for (int i = 0; i < 30; ++i) random_op(v);
    ASSERT_TRUE(v.Restore(snap.value()).ok());
    EXPECT_EQ(v.ExportState(), reference) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Export / import (process- and VM-snapshotter view)

TYPED_TEST(CheckpointSuite, ExportImportRoundTrip) {
  TypeParam v;
  ASSERT_TRUE(v.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  WriteAll(v, "/f", "exported");
  const Bytes image = v.ExportState();
  WriteAll(v, "/f", "scribbled-over");
  v.ImportState(image);
  EXPECT_EQ(ReadAll(v, "/f"), "exported");
}

}  // namespace
}  // namespace mcfs::verifs
