// The four historical VeriFS bugs (paper §6), each verified three ways:
// (1) the buggy behaviour is directly observable at the FileSystem API,
// (2) the fixed implementation does not show it, and (3) MCFS exploration
// detects it as a cross-FS discrepancy.
#include <gtest/gtest.h>

#include "mcfs/harness.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::core {
namespace {

using verifs::Verifs1;
using verifs::Verifs1Options;
using verifs::Verifs2;
using verifs::Verifs2Options;

void WriteAll(fs::FileSystem& f, const std::string& path,
              std::string_view data, std::uint64_t offset = 0) {
  auto fd = f.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(f.Write(fd.value(), offset, AsBytes(data)).ok());
  ASSERT_TRUE(f.Close(fd.value()).ok());
}

Bytes ReadAll(fs::FileSystem& f, const std::string& path) {
  auto fd = f.Open(path, fs::kRdOnly, 0);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return {};
  auto data = f.Read(fd.value(), 0, 1 << 20);
  EXPECT_TRUE(data.ok());
  EXPECT_TRUE(f.Close(fd.value()).ok());
  return data.ok() ? data.value() : Bytes{};
}

// ---------------------------------------------------------------------------
// Bug #1: VeriFS1 truncate fails to zero reclaimed space on expansion.

TEST(Bug1TruncateNoZero, BuggyExposesStaleBytes) {
  Verifs1Options options;
  options.bugs.truncate_no_zero_on_expand = true;
  Verifs1 buggy(options);
  ASSERT_TRUE(buggy.Mkfs().ok());
  ASSERT_TRUE(buggy.Mount().ok());
  WriteAll(buggy, "/f", "SECRET-DATA!");
  ASSERT_TRUE(buggy.Truncate("/f", 3).ok());
  ASSERT_TRUE(buggy.Truncate("/f", 12).ok());
  const Bytes data = ReadAll(buggy, "/f");
  ASSERT_EQ(data.size(), 12u);
  // The stale tail leaks: bytes 3..12 are the old content, not zeros.
  EXPECT_EQ(AsString(ByteView(data).subspan(3)), "RET-DATA!");
}

TEST(Bug1TruncateNoZero, FixedZeroes) {
  Verifs1 fixed;
  ASSERT_TRUE(fixed.Mkfs().ok());
  ASSERT_TRUE(fixed.Mount().ok());
  WriteAll(fixed, "/f", "SECRET-DATA!");
  ASSERT_TRUE(fixed.Truncate("/f", 3).ok());
  ASSERT_TRUE(fixed.Truncate("/f", 12).ok());
  const Bytes data = ReadAll(fixed, "/f");
  ASSERT_EQ(data.size(), 12u);
  for (std::size_t i = 3; i < 12; ++i) EXPECT_EQ(data[i], 0);
}

TEST(Bug1TruncateNoZero, McfsDetectsIt) {
  // The paper found this checking VeriFS1 vs Ext4 (§6, first bug).
  // Detection is exploration-order dependent — abstract-state dedup can
  // prune the buggy concrete path (the same is true of real Spin, which
  // is one reason the paper leans on seed-diversified swarm runs) — so
  // try a few seeds and require that diversification finds it.
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 16 && !found; ++seed) {
    McfsConfig config;
    config.fs_a.kind = FsKind::kVerifs1;
    config.fs_a.strategy = StateStrategy::kIoctl;
    config.fs_a.bugs.truncate_no_zero_on_expand = true;
    config.fs_b.kind = FsKind::kExt4;
    config.fs_b.strategy = StateStrategy::kRemountPerOp;
    config.engine.pool = ParameterPool::Tiny();
    config.explore.max_operations = 30'000;
    config.explore.max_depth = 6;
    config.explore.seed = seed;
    auto mcfs = Mcfs::Create(config);
    ASSERT_TRUE(mcfs.ok());
    McfsReport report = mcfs.value()->Run();
    if (report.stats.violation_found) {
      found = true;
      EXPECT_FALSE(report.stats.violation_trail.empty());
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Bug #2: restore without kernel-cache invalidation.
// (End-to-end detection lives in incoherency_test.cc; here the direct
// mechanism.)

TEST(Bug2SkipInvalidation, NoNotificationsAreEmittedWhenBuggy) {
  class Recorder : public fs::KernelNotifier {
   public:
    void InvalEntry(const std::string&, const std::string&) override {
      ++entries;
    }
    void InvalInode(fs::InodeNum) override { ++inodes; }
    int entries = 0;
    int inodes = 0;
  };

  Verifs1Options buggy_options;
  buggy_options.bugs.skip_cache_invalidation_on_restore = true;
  for (bool buggy : {false, true}) {
    Verifs1 v(buggy ? buggy_options : Verifs1Options{});
    Recorder recorder;
    v.SetNotifier(&recorder);
    ASSERT_TRUE(v.Mkfs().ok());
    ASSERT_TRUE(v.Mount().ok());
    auto snap = v.Checkpoint();
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(v.Mkdir("/d", 0755).ok());
    ASSERT_TRUE(v.Restore(snap.value()).ok());
    if (buggy) {
      EXPECT_EQ(recorder.entries, 0);
      EXPECT_EQ(recorder.inodes, 0);
    } else {
      EXPECT_GT(recorder.entries, 0);
      EXPECT_GT(recorder.inodes, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Bug #3: VeriFS2 write creating a hole fails to zero the gap.

TEST(Bug3WriteHoleNoZero, BuggyExposesStaleCapacityBytes) {
  Verifs2Options options;
  options.bugs.write_hole_no_zero = true;
  Verifs2 buggy(options);
  ASSERT_TRUE(buggy.Mkfs().ok());
  ASSERT_TRUE(buggy.Mount().ok());
  // Fill capacity with recognizable bytes, shrink, then write past EOF.
  WriteAll(buggy, "/f", "XXXXXXXXXXXXXXXX");  // 16 bytes
  ASSERT_TRUE(buggy.Truncate("/f", 4).ok());
  WriteAll(buggy, "/f", "tail", 10);  // hole at [4,10)
  const Bytes data = ReadAll(buggy, "/f");
  ASSERT_EQ(data.size(), 14u);
  // The hole shows the stale 'X's instead of zeros.
  EXPECT_EQ(AsString(ByteView(data).subspan(4, 6)), "XXXXXX");
}

TEST(Bug3WriteHoleNoZero, FixedZeroesTheGap) {
  Verifs2 fixed;
  ASSERT_TRUE(fixed.Mkfs().ok());
  ASSERT_TRUE(fixed.Mount().ok());
  WriteAll(fixed, "/f", "XXXXXXXXXXXXXXXX");
  ASSERT_TRUE(fixed.Truncate("/f", 4).ok());
  WriteAll(fixed, "/f", "tail", 10);
  const Bytes data = ReadAll(fixed, "/f");
  ASSERT_EQ(data.size(), 14u);
  for (std::size_t i = 4; i < 10; ++i) EXPECT_EQ(data[i], 0);
}

TEST(Bug3WriteHoleNoZero, McfsDetectsItAgainstVerifs1) {
  // The paper's development flow: VeriFS2 was model-checked against
  // VeriFS1 (§6, third bug).
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.fs_b.bugs.write_hole_no_zero = true;
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 100'000;
  config.explore.max_depth = 8;
  config.explore.seed = 5;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  ASSERT_TRUE(report.stats.violation_found) << report.Summary();
}

// ---------------------------------------------------------------------------
// Bug #4: VeriFS2 size updated only when the buffer capacity grew.

TEST(Bug4SizeOnlyOnGrowth, BuggyLosesAppendedLength) {
  Verifs2Options options;
  options.bugs.size_update_only_on_capacity_growth = true;
  Verifs2 buggy(options);
  ASSERT_TRUE(buggy.Mkfs().ok());
  ASSERT_TRUE(buggy.Mount().ok());
  // First write grows capacity (size updated on that path even when
  // buggy); the append stays within capacity and its size update is lost.
  WriteAll(buggy, "/f", "0123456789");        // capacity jumps to 64
  WriteAll(buggy, "/f", "abcd", 10);          // within capacity
  auto attr = buggy.GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 10u);          // the file came out short
  EXPECT_EQ(AsString(ReadAll(buggy, "/f")), "0123456789");
}

TEST(Bug4SizeOnlyOnGrowth, FixedKeepsFullLength) {
  Verifs2 fixed;
  ASSERT_TRUE(fixed.Mkfs().ok());
  ASSERT_TRUE(fixed.Mount().ok());
  WriteAll(fixed, "/f", "0123456789");
  WriteAll(fixed, "/f", "abcd", 10);
  auto attr = fixed.GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 14u);
  EXPECT_EQ(AsString(ReadAll(fixed, "/f")), "0123456789abcd");
}

TEST(Bug4SizeOnlyOnGrowth, McfsDetectsItAgainstVerifs1) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.fs_b.bugs.size_update_only_on_capacity_growth = true;
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 100'000;
  config.explore.max_depth = 8;
  config.explore.seed = 9;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  ASSERT_TRUE(report.stats.violation_found) << report.Summary();
}

// ---------------------------------------------------------------------------
// Cross-check: all four bug flags off = clean exploration (the fixed
// VeriFS generation matches the paper's 159M-op clean run, scaled down).

TEST(AllBugsFixed, CleanLongExploration) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Default();
  config.explore.max_operations = 20'000;
  config.explore.max_depth = 10;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.Summary();
  EXPECT_EQ(report.counters.discrepancies, 0u);
}

}  // namespace
}  // namespace mcfs::core
