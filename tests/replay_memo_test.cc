// Differential test of jffs2f's replay memo: every crash state of a
// seeded run is mounted twice, once through a recovery probe that
// resumes its log replay from the memo its stack's probes share, and
// once by a fresh Jffs2Fs with no memo. The two must agree on the
// mount's status and, byte for byte, on the recovered index
// (ExportMountState). One run keeps a large node at the head of the log,
// as the free-space fill does, and checks that the probes really resume;
// the other crosses garbage collection, which rewrites the flash from
// byte 0, so the memo has to miss. Both run with and without the
// jffs2_skip_log_replay mutant.
// Labelled crash: scripts/asan.sh -L crash and scripts/tsan.sh run it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fs/jffs2/jffs2fs.h"
#include "mcfs/fs_under_test.h"
#include "mcfs/ops.h"
#include "mcfs/trace.h"
#include "storage/crashable_disk.h"
#include "storage/mtd_device.h"
#include "util/rng.h"

namespace mcfs::core {
namespace {

using fs::Jffs2Fs;
using storage::BarrierModel;
using storage::BlockImage;

// The fill file's payload: one node of this many bytes near the log head.
constexpr std::size_t kLargeNodeBytes = 512 * 1024;

// Mounts `image` through `memoized` (a probe sharing a memo) and through a
// fresh Jffs2Fs with `options` and no memo, and requires the same result.
void ExpectSameRecovery(fs::FileSystem& memoized, const BlockImage& image,
                        const fs::Jffs2Options& options,
                        const std::string& where) {
  Jffs2Fs fresh(std::make_shared<storage::MtdDevice>("fresh", image, nullptr),
                options);
  const Status a = memoized.Mount();
  const Status b = fresh.Mount();
  ASSERT_EQ(a, b) << where;
  if (!a.ok()) return;
  auto* capture = dynamic_cast<fs::MountStateCapture*>(&memoized);
  ASSERT_NE(capture, nullptr);
  auto x = capture->ExportMountState();
  auto y = fresh.ExportMountState();
  ASSERT_TRUE(x.ok() && y.ok()) << where;
  EXPECT_EQ(x.value(), y.value()) << where;
}

// Visits every crash state of `disk` under both barrier models.
template <typename Fn>
void ForEachCrashState(const storage::CrashableDisk& disk, Fn&& fn) {
  for (BarrierModel model :
       {BarrierModel::kOrdered, BarrierModel::kReorderable}) {
    storage::CrashStateOptions options;
    options.barrier_model = model;
    disk.VisitCrashStates(options, [&](storage::CrashState st) {
      fn(st);
      return !::testing::Test::HasFatalFailure();
    });
  }
}

class ReplayMemoTest : public ::testing::TestWithParam<bool> {
 protected:
  fs::Jffs2Options Options() const {
    fs::Jffs2Options options;
    options.bug_skip_log_replay = GetParam();
    return options;
  }
};

// A crashable jffs2f stack set up as the crash campaign's pairs are
// (CrashPairConfig in crash_explore_test), driven through seeded
// Tiny-pool operations with fsync.
TEST_P(ReplayMemoTest, ProbesThroughTheMemoRecoverWhatFreshMountsRecover) {
  FsUnderTestConfig config;
  config.kind = FsKind::kJffs2;
  config.strategy = StateStrategy::kVfsApi;
  config.fuse_transport = false;
  config.block_cache_capacity = 0;
  config.crashable_device = true;
  config.bugs.jffs2_skip_log_replay = GetParam();
  auto made = FsUnderTest::Create(config, nullptr);
  ASSERT_TRUE(made.ok());
  FsUnderTest& fut = *made.value();
  storage::CrashableDisk* disk = fut.crash_disk();
  ASSERT_NE(disk, nullptr);
  ASSERT_NE(fut.replay_memo(), nullptr);

  // The large node first, made durable the way SeedInitial does.
  auto fd = fut.vfs().Open("/.mcfs_fill", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fut.vfs().Write(fd.value(), 0, Bytes(kLargeNodeBytes, 0)).ok());
  ASSERT_TRUE(fut.vfs().Close(fd.value()).ok());
  disk->MarkClean();

  ParameterPool pool = ParameterPool::Tiny();
  pool.include_fsync_ops = true;
  const std::vector<Operation> actions =
      pool.EnumerateAll(fut.SupportedFeatures());
  const Jffs2Fs::ReplayMemo& memo = *fut.replay_memo();
  std::uint64_t first_replays = 0;
  std::uint64_t first_bytes = 0;
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    const Operation& op = actions[rng.Below(actions.size())];
    ASSERT_TRUE(fut.BeginOp().ok());
    (void)ExecuteOp(fut.vfs(), op);
    ASSERT_TRUE(fut.EndOp().ok());
    ForEachCrashState(*disk, [&](const storage::CrashState& st) {
      auto probe = fut.BuildRecoveryProbe(st.image);
      ASSERT_TRUE(probe.ok());
      ExpectSameRecovery(*probe.value(), st.image, Options(),
                         "op " + std::to_string(i) + " " + op.ToString() +
                             " [" + st.Describe() + "]");
      if (memo.replays() == 1) {
        first_replays = memo.replays();
        first_bytes = memo.replayed_bytes();
      }
    });
    ASSERT_FALSE(HasFatalFailure());
  }

  // The first probe replays the whole log; the rest resume inside it.
  ASSERT_EQ(first_replays, 1u);
  EXPECT_GE(first_bytes, kLargeNodeBytes);
  const std::uint64_t resumed = memo.replays() - first_replays;
  ASSERT_GT(resumed, 100u);
  EXPECT_LT((memo.replayed_bytes() - first_bytes) / resumed,
            kLargeNodeBytes / 100);
}

// A small CrashableDisk-over-MtdDevice stack whose writes fill the flash
// until garbage collection erases it and rewrites the live nodes from
// byte 0: the memo's image and the new flash then part at the first
// node, and the probes must replay the whole new log.
TEST_P(ReplayMemoTest, ProbesAcrossGarbageCollectionMissAndStillAgree) {
  auto mtd = std::make_shared<storage::MtdDevice>("mtd", 64 * 1024, nullptr);
  auto disk = std::make_shared<storage::CrashableDisk>(
      std::make_shared<storage::MtdBlockShim>(mtd));
  disk->AttachMtd(mtd);
  Jffs2Fs live(mtd, Options());
  ASSERT_TRUE(live.Mkfs().ok());
  ASSERT_TRUE(live.Mount().ok());
  auto fd = live.Open("/big", fs::kCreate | fs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(live.Write(fd.value(), 0, Bytes(8 * 1024, 0x5a)).ok());
  ASSERT_TRUE(live.Fsync(fd.value()).ok());

  auto memo = std::make_shared<Jffs2Fs::ReplayMemo>();
  for (int i = 0; live.gc_runs() < 2; ++i) {
    ASSERT_LT(i, 100) << "garbage collection never ran twice";
    const std::uint64_t gc_before = live.gc_runs();
    const std::uint64_t bytes_before = memo->replayed_bytes();
    auto f = live.Open("/f" + std::to_string(i % 3), fs::kCreate | fs::kRdWr,
                       0644);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(live.Write(f.value(), 0,
                           Bytes(3 * 1024, static_cast<std::uint8_t>(i)))
                    .ok());
    if (i % 4 == 3) {
      ASSERT_TRUE(live.Fsync(f.value()).ok());
    }
    ASSERT_TRUE(live.Close(f.value()).ok());
    ForEachCrashState(*disk, [&](const storage::CrashState& st) {
      Jffs2Fs probe(std::make_shared<storage::MtdDevice>("probe", st.image,
                                                         nullptr),
                    Options(), memo);
      ExpectSameRecovery(probe, st.image, Options(),
                         "write " + std::to_string(i) + " [" +
                             st.Describe() + "]");
    });
    ASSERT_FALSE(HasFatalFailure());
    // A GC rewrites the log from byte 0 under new sequence numbers, so
    // its nodes match no node of a flash replayed before it: across this
    // write's states, the probes replay every byte of the new log.
    if (live.gc_runs() > gc_before) {
      EXPECT_GE(memo->replayed_bytes() - bytes_before, live.log_head());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Jffs2, ReplayMemoTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "SkipLogReplayMutant"
                                             : "Clean";
                         });

// The fold's state depends on the flash size, so a memo primed on one
// size resumes nothing on another, however many bytes the two share.
TEST(ReplayMemoSizeTest, ImageOfAnotherSizeReplaysFromTheStart) {
  auto small = std::make_shared<storage::MtdDevice>("small", 64 * 1024,
                                                    nullptr);
  Jffs2Fs writer(small);
  ASSERT_TRUE(writer.Mkfs().ok());
  ASSERT_TRUE(writer.Mount().ok());
  ASSERT_TRUE(writer.Mkdir("/d", 0755).ok());
  ASSERT_TRUE(writer.Unmount().ok());
  const std::uint64_t log_bytes = writer.log_head();

  auto memo = std::make_shared<Jffs2Fs::ReplayMemo>();
  Jffs2Fs primer(std::make_shared<storage::MtdDevice>("a", small->image(),
                                                      nullptr),
                 {}, memo);
  ASSERT_TRUE(primer.Mount().ok());
  ASSERT_EQ(memo->replayed_bytes(), log_bytes);

  BlockImage larger(128 * 1024, storage::MtdDevice::kErased);
  larger.Write(0, small->image().ToBytes());
  Jffs2Fs probe(std::make_shared<storage::MtdDevice>("b", larger, nullptr),
                {}, memo);
  ExpectSameRecovery(probe, larger, {}, "128 KB after 64 KB");
  EXPECT_EQ(memo->replays(), 2u);
  EXPECT_EQ(memo->replayed_bytes(), 2 * log_bytes);
}

}  // namespace
}  // namespace mcfs::core
