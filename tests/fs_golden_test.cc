// Golden-value pin for the kernel-style file systems (ext2f, ext4f,
// xfsf, jffs2f): a seeded sequence of Default-pool operations, with an
// unmount and mount every 50 operations, must reproduce exactly the
// errnos, device traffic, simulated time, on-disk image and abstract
// state that were recorded when the values below were computed. Any
// refactor of the namespace code shared by ext2f, ext4f and xfsf, or of
// jffs2f's index and log replay, has to leave every one of them
// unchanged: same error codes, the same device reads and writes, the
// same SimClock charges and byte-identical images.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "mcfs/abstraction.h"
#include "mcfs/ops.h"
#include "mcfs/trace.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "vfs/vfs.h"

namespace mcfs::core {
namespace {

constexpr int kOps = 600;
constexpr int kRemountEvery = 50;
constexpr std::uint64_t kSeed = 20211;

struct Golden {
  const char* name;
  const char* errno_md5;    // MD5 over the per-op errno sequence
  const char* outcome_md5;  // MD5 over dirents (in order), stat, read data
  storage::DeviceStats stats;
  SimClock::Nanos sim_ns;
  const char* image_md5;
  const char* abstract_state;
};

fs::FileSystemPtr MakeFs(const std::string& name,
                         storage::BlockDevicePtr dev) {
  if (name == "ext2f") return std::make_shared<fs::Ext2Fs>(dev);
  if (name == "ext2f-cache4") {
    fs::Ext2Options options;
    options.cache_capacity_blocks = 4;
    return std::make_shared<fs::Ext2Fs>(dev, options);
  }
  if (name == "ext4f") return std::make_shared<fs::Ext4Fs>(dev);
  if (name == "ext4f-cache4") {
    fs::Ext4Options options;
    options.cache_capacity_blocks = 4;
    return std::make_shared<fs::Ext4Fs>(dev, options);
  }
  return std::make_shared<fs::XfsFs>(dev);
}

std::uint64_t DeviceBytes(const std::string& name) {
  return name == "xfsf" ? fs::XfsFs::kMinFsBytes : 256 * 1024;
}

void HashOutcome(Md5& md5, const OpOutcome& outcome) {
  md5.UpdateU64(outcome.dirents.size());
  for (const auto& e : outcome.dirents) {
    md5.Update(e.name);
    md5.UpdateU64(e.ino);
    md5.UpdateU64(static_cast<std::uint64_t>(e.type));
  }
  md5.UpdateU64(outcome.has_attr ? 1 : 0);
  if (outcome.has_attr) {
    const fs::InodeAttr& a = outcome.attr;
    for (std::uint64_t v : {a.ino, static_cast<std::uint64_t>(a.type),
                            static_cast<std::uint64_t>(a.mode),
                            static_cast<std::uint64_t>(a.nlink),
                            static_cast<std::uint64_t>(a.uid),
                            static_cast<std::uint64_t>(a.gid), a.size,
                            a.blocks, a.atime_ns, a.mtime_ns, a.ctime_ns}) {
      md5.UpdateU64(v);
    }
  }
  md5.UpdateU64(outcome.data.size());
  md5.Update(outcome.data);
  md5.Update(outcome.link_target);
}

// Runs kOps seeded Default-pool operations (with fsync) on `v`, hashing
// each errno and outcome, and calls `remount(i)` after every
// kRemountEvery-th operation. The sequence must reach every operation
// family the file systems implement.
void RunSequence(vfs::Vfs& v, const fs::FileSystem& filesystem, Md5* errnos,
                 Md5* outcomes, const std::function<void(int)>& remount) {
  ParameterPool pool = ParameterPool::Default();
  pool.include_fsync_ops = true;
  std::vector<fs::FsFeature> features;
  for (fs::FsFeature f :
       {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
        fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
        fs::FsFeature::kXattr}) {
    if (filesystem.Supports(f)) features.push_back(f);
  }
  const std::vector<Operation> actions = pool.EnumerateAll(features);
  ASSERT_FALSE(actions.empty());

  Rng rng(kSeed);
  std::map<OpKind, int> succeeded;
  for (int i = 1; i <= kOps; ++i) {
    const Operation& op = actions[rng.Below(actions.size())];
    const OpOutcome outcome = ExecuteOp(v, op);
    errnos->UpdateU64(static_cast<std::uint64_t>(outcome.error));
    HashOutcome(*outcomes, outcome);
    if (outcome.error == Errno::kOk) ++succeeded[op.kind];
    if (i % kRemountEvery == 0) remount(i);
  }
  for (OpKind kind : {OpKind::kRename, OpKind::kLink, OpKind::kSymlink,
                      OpKind::kSetXattr, OpKind::kRemoveXattr,
                      OpKind::kTruncate, OpKind::kFsync, OpKind::kWriteFile,
                      OpKind::kRmdir, OpKind::kUnlink, OpKind::kReadLink}) {
    EXPECT_GT(succeeded[kind], 0) << OpKindName(kind);
  }
}

void PrintTo(const Golden& golden, std::ostream* os) { *os << golden.name; }

class FsGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(FsGoldenTest, SeededSequenceMatchesPinnedValues) {
  const Golden& golden = GetParam();
  SimClock clock;
  auto disk = std::make_shared<storage::RamDisk>(
      "golden", DeviceBytes(golden.name), &clock);
  auto filesystem = MakeFs(golden.name, disk);
  vfs::VfsOptions vfs_options;
  vfs_options.enable_caches = false;  // every call reaches the file system
  vfs::Vfs v(filesystem, &clock, vfs_options);
  ASSERT_TRUE(filesystem->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());

  Md5 errnos;
  Md5 outcomes;
  RunSequence(v, *filesystem, &errnos, &outcomes, [&](int i) {
    ASSERT_TRUE(v.Unmount().ok()) << "op " << i;
    ASSERT_TRUE(v.Mount().ok()) << "op " << i;
  });

  // Traffic and time are read after a final unmount, before the image
  // read below adds to them.
  ASSERT_TRUE(v.Unmount().ok());
  const storage::DeviceStats stats = disk->stats();
  const SimClock::Nanos sim_ns = clock.now();
  Bytes image(disk->size_bytes());
  ASSERT_TRUE(disk->Read(0, image).ok());
  ASSERT_TRUE(v.Mount().ok());
  AbstractionOptions abstraction;
  abstraction.exception_list = {"/lost+found"};
  auto state = ComputeAbstractState(v, abstraction);
  ASSERT_TRUE(state.ok());

  EXPECT_EQ(errnos.Final().ToHex(), golden.errno_md5);
  EXPECT_EQ(outcomes.Final().ToHex(), golden.outcome_md5);
  EXPECT_EQ(stats.reads, golden.stats.reads);
  EXPECT_EQ(stats.writes, golden.stats.writes);
  EXPECT_EQ(stats.bytes_read, golden.stats.bytes_read);
  EXPECT_EQ(stats.bytes_written, golden.stats.bytes_written);
  EXPECT_EQ(stats.flushes, golden.stats.flushes);
  EXPECT_EQ(sim_ns, golden.sim_ns);
  EXPECT_EQ(Md5::Hash(image).ToHex(), golden.image_md5);
  EXPECT_EQ(state.value().ToHex(), golden.abstract_state);
}

INSTANTIATE_TEST_SUITE_P(
    KernelFileSystems, FsGoldenTest,
    ::testing::Values(
        Golden{"ext2f", "1dd4b17d906db561011f5cfb0f3f6ad9",
               "9f2064a6b79833cd6112305231c43060",
               {82, 177, 83968, 181248, 20},
               10309608,
               "64a4f58aa10c22086a2ffdf54f54b7ea",
               "0d47ac36868751003885cc6f6e725515"},
        Golden{"ext2f-cache4", "1dd4b17d906db561011f5cfb0f3f6ad9",
               "9f2064a6b79833cd6112305231c43060",
               {340, 237, 348160, 242688, 20},
               18422424,
               "64a4f58aa10c22086a2ffdf54f54b7ea",
               "0d47ac36868751003885cc6f6e725515"},
        Golden{"ext4f", "1dd4b17d906db561011f5cfb0f3f6ad9",
               "ed56008410c2774b3c7dcbba3fb32ab7",
               {95, 232, 97280, 237568, 24},
               12044424,
               "dc62eecbc244ac065e3226cfc02119f8",
               "0d47ac36868751003885cc6f6e725515"},
        Golden{"ext4f-cache4", "1dd4b17d906db561011f5cfb0f3f6ad9",
               "ed56008410c2774b3c7dcbba3fb32ab7",
               {353, 384, 361472, 393216, 40},
               22504344,
               "48669ebf0e15d6b1c64eb2e39c206a51",
               "0d47ac36868751003885cc6f6e725515"},
        Golden{"xfsf", "1dd4b17d906db561011f5cfb0f3f6ad9",
               "d2fd3052516383493fcac687604a0e09",
               {8018, 586, 237314048, 2400256, 20},
               338659152,
               "9e8b0d0638c5110c4ecbccc263f8c1ea",
               "0d47ac36868751003885cc6f6e725515"}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// jffs2f runs the same sequence on a 128 KB flash, small enough that
// the log fills and garbage collection rewrites it. Every 50 operations
// the mount state is exported and the flash remounted (a log replay);
// every 100, the exported state is imported back over the replayed one,
// as a kVfsApi restore does, which brings back the in-memory atimes and
// op counter the replay cannot see. An MTD keeps no DeviceStats, so the
// log head and the GC count stand in for the traffic row.
TEST(FsGoldenTest, Jffs2SeededSequenceMatchesPinnedValues) {
  SimClock clock;
  auto mtd = std::make_shared<storage::MtdDevice>("golden", 128 * 1024,
                                                  &clock);
  auto filesystem = std::make_shared<fs::Jffs2Fs>(mtd);
  vfs::VfsOptions vfs_options;
  vfs_options.enable_caches = false;
  vfs::Vfs v(filesystem, &clock, vfs_options);
  ASSERT_TRUE(filesystem->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());

  Md5 errnos;
  Md5 outcomes;
  Md5 mount_states;
  RunSequence(v, *filesystem, &errnos, &outcomes, [&](int i) {
    auto exported = filesystem->ExportMountState();
    ASSERT_TRUE(exported.ok()) << "op " << i;
    mount_states.Update(exported.value());
    ASSERT_TRUE(v.Unmount().ok()) << "op " << i;
    ASSERT_TRUE(v.Mount().ok()) << "op " << i;
    if (i % (2 * kRemountEvery) == 0) {
      ASSERT_TRUE(filesystem->ImportMountState(exported.value()).ok())
          << "op " << i;
    }
  });

  // No pool operation opens with O_TRUNC: truncate a written file that
  // way, write past the new end (a zero-filled hole) and read it back.
  auto fd = v.Open("/trunc", fs::kCreate | fs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 0, AsBytes("before")).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
  fd = v.Open("/trunc", fs::kRdWr | fs::kTrunc, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 2, AsBytes("after")).ok());
  auto data = v.Read(fd.value(), 0, 64);
  ASSERT_TRUE(data.ok());
  outcomes.Update(data.value());
  ASSERT_TRUE(v.Close(fd.value()).ok());

  ASSERT_TRUE(v.Unmount().ok());
  const SimClock::Nanos sim_ns = clock.now();
  Bytes image(mtd->size_bytes());
  ASSERT_TRUE(mtd->Read(0, image).ok());
  ASSERT_TRUE(v.Mount().ok());
  auto state = ComputeAbstractState(v, AbstractionOptions{});
  ASSERT_TRUE(state.ok());

  ASSERT_GE(filesystem->gc_runs(), 1u) << "the log never wrapped";
  EXPECT_EQ(errnos.Final().ToHex(), "1dd4b17d906db561011f5cfb0f3f6ad9");
  EXPECT_EQ(outcomes.Final().ToHex(), "ed807b2bf2d05a48f3187c605cd43c17");
  EXPECT_EQ(mount_states.Final().ToHex(),
            "9d335e1ad7fde421f00b3f80cb44335a");
  EXPECT_EQ(sim_ns, 65114000);
  EXPECT_EQ(Md5::Hash(image).ToHex(), "8845f009328d67c17b74712a08e995da");
  EXPECT_EQ(filesystem->gc_runs(), 1u);
  EXPECT_EQ(filesystem->log_head(), 64988u);
  EXPECT_EQ(state.value().ToHex(), "8a6468176350d6256ec7d0996a1007fd");
}

}  // namespace
}  // namespace mcfs::core
