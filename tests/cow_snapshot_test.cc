// COW snapshot suite: the redesigned handle-based checkpoint API
// (Checkpoint -> SnapshotId, non-consuming Restore, explicit Discard),
// the shared/exclusive byte accounting, the FUSE wire extension, and
// the differential proof that the structurally-shared implementation is
// observationally identical to the original copy-the-world snapshots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuse/fuse_channel.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "mcfs/harness.h"
#include "mcfs/syscall_engine.h"
#include "util/rng.h"
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

template <typename Fs>
Fs MakeMounted() {
  Fs v;
  EXPECT_TRUE(v.Mkfs().ok());
  EXPECT_TRUE(v.Mount().ok());
  return v;
}

// ---------------------------------------------------------------------------
// Handle semantics (both generations share the substrate).

template <typename Fs>
void CheckHandleSemantics() {
  Fs v = MakeMounted<Fs>();
  ASSERT_TRUE(v.Mkdir("/a", 0755).ok());

  auto s1 = v.Checkpoint();
  ASSERT_TRUE(s1.ok());
  EXPECT_NE(s1.value(), fs::kInvalidSnapshotId);

  ASSERT_TRUE(v.Mkdir("/b", 0755).ok());
  auto s2 = v.Checkpoint();
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s2.value(), s1.value());
  EXPECT_EQ(v.Stats().count, 2u);

  // Restore is non-consuming and repeatable.
  ASSERT_TRUE(v.Restore(s1.value()).ok());
  EXPECT_TRUE(v.GetAttr("/a").ok());
  EXPECT_EQ(v.GetAttr("/b").error(), Errno::kENOENT);
  ASSERT_TRUE(v.Restore(s2.value()).ok());
  EXPECT_TRUE(v.GetAttr("/b").ok());
  ASSERT_TRUE(v.Restore(s1.value()).ok());
  EXPECT_EQ(v.GetAttr("/b").error(), Errno::kENOENT);
  EXPECT_EQ(v.Stats().count, 2u);

  // Unknown handles and explicit discard.
  EXPECT_EQ(v.Restore(s2.value() + 100).error(), Errno::kENOENT);
  EXPECT_TRUE(v.Discard(s2.value()).ok());
  EXPECT_EQ(v.Discard(s2.value()).error(), Errno::kENOENT);
  EXPECT_EQ(v.Restore(s2.value()).error(), Errno::kENOENT);
  EXPECT_EQ(v.Stats().count, 1u);

  // Checkpoint/restore demand a mounted file system.
  ASSERT_TRUE(v.Unmount().ok());
  EXPECT_EQ(v.Checkpoint().error(), Errno::kEINVAL);
  EXPECT_EQ(v.Restore(s1.value()).error(), Errno::kEINVAL);
}

TEST(CowHandleTest, Verifs1HandleSemantics) {
  CheckHandleSemantics<Verifs1>();
}

TEST(CowHandleTest, Verifs2HandleSemantics) {
  CheckHandleSemantics<Verifs2>();
}

// The sequence that the old consuming/re-arming API could not express:
// jumping forward to a snapshot taken on a timeline later abandoned by a
// restore. The invalidation log must replay the tail it rolled back.
template <typename Fs>
void CheckForwardRestore() {
  Fs v = MakeMounted<Fs>();
  auto s1 = v.Checkpoint();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(v.Mkdir("/a", 0755).ok());
  auto s2 = v.Checkpoint();
  ASSERT_TRUE(s2.ok());

  ASSERT_TRUE(v.Restore(s1.value()).ok());
  ASSERT_TRUE(v.Mkdir("/b", 0755).ok());
  ASSERT_TRUE(v.Restore(s2.value()).ok());  // forward off the live timeline
  EXPECT_TRUE(v.GetAttr("/a").ok());
  EXPECT_EQ(v.GetAttr("/b").error(), Errno::kENOENT);
  ASSERT_TRUE(v.Restore(s1.value()).ok());
  EXPECT_EQ(v.GetAttr("/a").error(), Errno::kENOENT);
}

TEST(CowHandleTest, Verifs1ForwardRestore) { CheckForwardRestore<Verifs1>(); }

TEST(CowHandleTest, Verifs2ForwardRestore) { CheckForwardRestore<Verifs2>(); }

// ---------------------------------------------------------------------------
// Shared/exclusive byte accounting.

TEST(CowStatsTest, SharedUntilTheLiveStateDiverges) {
  Verifs2 v = MakeMounted<Verifs2>();
  WriteAll(v, "/big", std::string(32 * 1024, 'x'));

  auto snap = v.Checkpoint();
  ASSERT_TRUE(snap.ok());
  fs::SnapshotStats stats = v.Stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.total_bytes, stats.shared_bytes + stats.exclusive_bytes);
  // Right after a checkpoint every node is still held by the live state.
  EXPECT_GE(stats.shared_bytes, 32u * 1024);
  EXPECT_EQ(stats.exclusive_bytes, 0u);

  // Overwrite the file: the snapshot's data blocks are now its alone.
  WriteAll(v, "/big", std::string(32 * 1024, 'y'));
  stats = v.Stats();
  EXPECT_GE(stats.exclusive_bytes, 32u * 1024);

  // A second snapshot of the new state shares nothing with the first
  // beyond untouched metadata chunks; the old blocks stay exclusive.
  auto snap2 = v.Checkpoint();
  ASSERT_TRUE(snap2.ok());
  stats = v.Stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_GE(stats.exclusive_bytes, 32u * 1024);
  EXPECT_EQ(stats.total_bytes, stats.shared_bytes + stats.exclusive_bytes);
}

TEST(CowStatsTest, TwoSnapshotsOfOneStateShareEverything) {
  Verifs1 v = MakeMounted<Verifs1>();
  WriteAll(v, "/f", std::string(8 * 1024, 'z'));
  ASSERT_TRUE(v.Checkpoint().ok());
  ASSERT_TRUE(v.Checkpoint().ok());
  const fs::SnapshotStats stats = v.Stats();
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(stats.exclusive_bytes, 0u);  // either discard frees nothing
  EXPECT_GT(stats.shared_bytes, 0u);
}

template <typename Fs>
void CheckLeakToBaseline() {
  Fs v = MakeMounted<Fs>();
  Rng rng(7);
  std::vector<fs::SnapshotId> snaps;
  for (int step = 0; step < 120; ++step) {
    const std::string path = "/f" + std::to_string(rng.Below(6));
    switch (rng.Below(5)) {
      case 0:
        (void)v.Mkdir(path, 0755);
        break;
      case 1: {
        // The path may currently name a directory; a failed open is
        // part of the workload, not an error.
        auto fd = v.Open(path, fs::kCreate | fs::kWrOnly, 0644);
        if (fd.ok()) {
          (void)v.Write(fd.value(), 0, Bytes(rng.Below(9000), 0xd1));
          (void)v.Close(fd.value());
        }
        break;
      }
      case 2:
        (void)v.Unlink(path);
        break;
      case 3: {
        auto id = v.Checkpoint();
        ASSERT_TRUE(id.ok());
        snaps.push_back(id.value());
        break;
      }
      case 4:
        if (!snaps.empty()) {
          ASSERT_TRUE(v.Restore(snaps[rng.Below(snaps.size())]).ok());
        }
        break;
    }
  }
  ASSERT_FALSE(snaps.empty());
  for (fs::SnapshotId id : snaps) ASSERT_TRUE(v.Discard(id).ok());
  // Every pool-held node must have been released: the pool is empty and
  // charges nothing, no matter how the timelines interleaved.
  const fs::SnapshotStats stats = v.Stats();
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.total_bytes, 0u);
  EXPECT_EQ(stats.shared_bytes, 0u);
  EXPECT_EQ(stats.exclusive_bytes, 0u);
}

TEST(CowStatsTest, Verifs1DiscardAllReturnsToBaseline) {
  CheckLeakToBaseline<Verifs1>();
}

TEST(CowStatsTest, Verifs2DiscardAllReturnsToBaseline) {
  CheckLeakToBaseline<Verifs2>();
}

// ---------------------------------------------------------------------------
// FUSE wire: the handle surface crosses the channel.

struct FuseStack {
  std::unique_ptr<fuse::FuseChannel> channel;
  std::shared_ptr<Verifs2> hosted;
  std::unique_ptr<fuse::FuseHost> host;
  std::unique_ptr<fuse::FuseClientFs> client;
};

FuseStack MakeStack() {
  FuseStack stack;
  stack.channel = std::make_unique<fuse::FuseChannel>(nullptr);
  stack.hosted = std::make_shared<Verifs2>();
  stack.host =
      std::make_unique<fuse::FuseHost>(stack.hosted, stack.channel.get());
  stack.client = std::make_unique<fuse::FuseClientFs>(stack.channel.get());
  EXPECT_TRUE(stack.client->Mkfs().ok());
  EXPECT_TRUE(stack.client->Mount().ok());
  return stack;
}

TEST(CowWireTest, HandleSurfaceRoundTripsOverTheChannel) {
  FuseStack stack = MakeStack();
  ASSERT_TRUE(stack.client->Mkdir("/w", 0755).ok());

  auto id = stack.client->Checkpoint();
  ASSERT_TRUE(id.ok());
  EXPECT_NE(id.value(), fs::kInvalidSnapshotId);

  ASSERT_TRUE(stack.client->Mkdir("/x", 0755).ok());
  ASSERT_TRUE(stack.client->Restore(id.value()).ok());
  EXPECT_TRUE(stack.client->GetAttr("/w").ok());
  EXPECT_EQ(stack.client->GetAttr("/x").error(), Errno::kENOENT);
  // Still restorable: the wire restore is non-consuming too.
  ASSERT_TRUE(stack.client->Restore(id.value()).ok());

  const fs::SnapshotStats stats = stack.client->Stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.total_bytes, stack.hosted->Stats().total_bytes);

  ASSERT_TRUE(stack.client->Discard(id.value()).ok());
  EXPECT_EQ(stack.client->Discard(id.value()).error(), Errno::kENOENT);
  EXPECT_EQ(stack.client->Stats().count, 0u);
}

// ---------------------------------------------------------------------------
// Differential: COW on vs the deep-copy baseline must be byte-identical
// at every step of a randomized 250-step run that interleaves mutations
// with checkpoint/restore/discard, on both generations.

template <typename Fs, typename Options>
void RunCowVsDeepDifferential() {
  Options cow_opts;
  cow_opts.cow_snapshots = true;
  Options deep_opts;
  deep_opts.cow_snapshots = false;
  Fs cow(cow_opts);
  Fs deep(deep_opts);
  for (fs::FileSystem* f : {static_cast<fs::FileSystem*>(&cow),
                            static_cast<fs::FileSystem*>(&deep)}) {
    ASSERT_TRUE(f->Mkfs().ok());
    ASSERT_TRUE(f->Mount().ok());
  }

  Rng rng(1234);
  // Both pools allocate handles 1,2,3... so the same op sequence yields
  // the same ids on both sides; one list serves both.
  std::vector<fs::SnapshotId> snaps;
  int checkpoints_taken = 0;
  for (int step = 0; step < 250; ++step) {
    const std::string path = "/p" + std::to_string(rng.Below(5));
    const std::uint64_t op = rng.Below(8);
    const std::uint64_t len = rng.Below(6000);
    const std::uint64_t off = rng.Below(3000);
    Status sc = Status::Ok(), sd = Status::Ok();
    switch (op) {
      case 0:
        sc = cow.Mkdir(path, 0755);
        sd = deep.Mkdir(path, 0755);
        break;
      case 1: {
        auto write = [&](Fs& f) {
          auto fd = f.Open(path, fs::kCreate | fs::kWrOnly, 0644);
          if (!fd.ok()) return Status(fd.error());
          auto n = f.Write(fd.value(), off, Bytes(len, 0xab));
          Status closed = f.Close(fd.value());
          return n.ok() ? closed : Status(n.error());
        };
        sc = write(cow);
        sd = write(deep);
        break;
      }
      case 2:
        sc = cow.Unlink(path);
        sd = deep.Unlink(path);
        break;
      case 3:
        sc = cow.Rmdir(path);
        sd = deep.Rmdir(path);
        break;
      case 4:
        sc = cow.Truncate(path, len);
        sd = deep.Truncate(path, len);
        break;
      case 5: {
        auto ic = cow.Checkpoint();
        auto id = deep.Checkpoint();
        ASSERT_EQ(ic.ok(), id.ok());
        if (ic.ok()) {
          ASSERT_EQ(ic.value(), id.value());
          snaps.push_back(ic.value());
          ++checkpoints_taken;
        }
        break;
      }
      case 6:
        if (!snaps.empty()) {
          const fs::SnapshotId id = snaps[rng.Below(snaps.size())];
          sc = cow.Restore(id);
          sd = deep.Restore(id);
        }
        break;
      case 7:
        if (!snaps.empty()) {
          const std::size_t pick = rng.Below(snaps.size());
          sc = cow.Discard(snaps[pick]);
          sd = deep.Discard(snaps[pick]);
          snaps.erase(snaps.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        break;
    }
    ASSERT_EQ(sc.ok(), sd.ok()) << "step " << step << " op " << op;
    if (!sc.ok()) {
      ASSERT_EQ(sc.error(), sd.error()) << "step " << step;
    }
    // The serialized full state is the canonical digest: identical bytes
    // mean identical trees, attributes, sizes, and stale-capacity
    // contents (the seeded-bug substrate).
    ASSERT_EQ(cow.ExportState(), deep.ExportState()) << "step " << step;
  }
  ASSERT_GT(checkpoints_taken, 10);  // the run actually exercised snapshots
  for (fs::SnapshotId id : snaps) {
    ASSERT_TRUE(cow.Discard(id).ok());
    ASSERT_TRUE(deep.Discard(id).ok());
  }
  EXPECT_EQ(cow.Stats().total_bytes, 0u);
  EXPECT_EQ(deep.Stats().total_bytes, 0u);
}

TEST(CowDifferentialTest, Verifs1CowMatchesDeepCopy) {
  RunCowVsDeepDifferential<Verifs1, Verifs1Options>();
}

TEST(CowDifferentialTest, Verifs2CowMatchesDeepCopy) {
  RunCowVsDeepDifferential<Verifs2, Verifs2Options>();
}

// Explorer-level differential: a DFS against ext2f must traverse the
// same state space and find the same (empty) violation set whether the
// VeriFS side snapshots by COW or by deep copy.
void RunExplorerDifferential(core::FsKind verifs_kind) {
  mc::ExploreStats baseline;
  for (bool cow : {false, true}) {
    core::McfsConfig config;
    config.fs_a.kind = core::FsKind::kExt2;
    config.fs_a.strategy = core::StateStrategy::kRemountPerOp;
    config.fs_b.kind = verifs_kind;
    config.fs_b.strategy = core::StateStrategy::kIoctl;
    config.fs_b.cow_snapshots = cow;
    config.explore.mode = mc::SearchMode::kDfs;
    config.explore.max_operations = 250;
    config.explore.max_depth = 4;
    auto mcfs = core::Mcfs::Create(config);
    ASSERT_TRUE(mcfs.ok());
    core::McfsReport report = mcfs.value()->Run();
    EXPECT_FALSE(report.stats.violation_found) << report.Summary();
    if (!cow) {
      baseline = report.stats;
    } else {
      EXPECT_EQ(report.stats.operations, baseline.operations);
      EXPECT_EQ(report.stats.unique_states, baseline.unique_states);
      EXPECT_EQ(report.stats.revisits, baseline.revisits);
      EXPECT_EQ(report.stats.backtracks, baseline.backtracks);
    }
  }
}

TEST(CowDifferentialTest, ExplorerStateSpaceIdenticalVerifs1) {
  RunExplorerDifferential(core::FsKind::kVerifs1);
}

TEST(CowDifferentialTest, ExplorerStateSpaceIdenticalVerifs2) {
  RunExplorerDifferential(core::FsKind::kVerifs2);
}

// ---------------------------------------------------------------------------
// Engine counters expose the pool accounting.

TEST(CowEngineTest, CountersTrackLiveAndPeakSnapshots) {
  core::FsUnderTestConfig ca;
  ca.kind = core::FsKind::kVerifs1;
  ca.strategy = core::StateStrategy::kIoctl;
  core::FsUnderTestConfig cb;
  cb.kind = core::FsKind::kVerifs2;
  cb.strategy = core::StateStrategy::kIoctl;
  auto a = core::FsUnderTest::Create(ca, nullptr);
  auto b = core::FsUnderTest::Create(cb, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  core::SyscallEngine engine({a.value().get(), b.value().get()}, {});

  auto s1 = engine.SaveConcrete();
  ASSERT_TRUE(s1.ok());
  auto s2 = engine.SaveConcrete();
  ASSERT_TRUE(s2.ok());
  const core::EngineCounters& counters = engine.counters();
  EXPECT_EQ(counters.snapshots_live, 4u);  // two snapshots x two sides
  EXPECT_EQ(counters.snapshots_peak, 4u);
  EXPECT_EQ(counters.snapshot_total_bytes,
            counters.snapshot_shared_bytes + counters.snapshot_exclusive_bytes);
  EXPECT_GT(counters.snapshot_total_bytes, 0u);

  ASSERT_TRUE(engine.DiscardConcrete(s2.value()).ok());
  ASSERT_TRUE(engine.DiscardConcrete(s1.value()).ok());
  EXPECT_EQ(engine.counters().snapshots_live, 0u);
  EXPECT_EQ(engine.counters().snapshots_peak, 4u);
  EXPECT_EQ(engine.counters().snapshot_total_bytes, 0u);
}

}  // namespace
}  // namespace mcfs::verifs
