// Microbenchmarks for the building blocks (host wall-clock, via google
// benchmark's normal timing): MD5 throughput, abstraction-function walk,
// VeriFS checkpoint/restore, FUSE round trip, visited-table insertion,
// bitstate insertion, and block-device snapshots. These are the knobs the
// macro results (Figures 2-3) are built from.
#include <benchmark/benchmark.h>

#include "fs/ext2/ext2fs.h"
#include "fuse/fuse_channel.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "mc/bitstate.h"
#include "mc/hash_table.h"
#include "mcfs/abstraction.h"
#include "mcfs/ops.h"
#include "mcfs/trace.h"
#include "storage/ram_disk.h"
#include "util/md5.h"
#include "verifs/verifs2.h"

namespace {

using namespace mcfs;

void BM_Md5Throughput(benchmark::State& state) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Hash(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(64)->Arg(4096)->Arg(65536);

void BM_VisitedTableInsert(benchmark::State& state) {
  mc::VisitedTable table(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Md5 md5;
    md5.UpdateU64(i++);
    benchmark::DoNotOptimize(table.Insert(md5.Final()));
  }
}
BENCHMARK(BM_VisitedTableInsert);

void BM_BitstateInsert(benchmark::State& state) {
  mc::BitstateFilter filter(1 << 24);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Md5 md5;
    md5.UpdateU64(i++);
    benchmark::DoNotOptimize(filter.Insert(md5.Final()));
  }
}
BENCHMARK(BM_BitstateInsert);

void BM_VerifsCheckpoint(benchmark::State& state) {
  verifs::Verifs2 v;
  (void)v.Mkfs();
  (void)v.Mount();
  // Populate with a representative tree.
  for (int i = 0; i < 8; ++i) {
    auto fd = v.Open("/f" + std::to_string(i), fs::kCreate | fs::kWrOnly,
                     0644);
    if (fd.ok()) {
      (void)v.Write(fd.value(), 0,
                    Bytes(static_cast<std::size_t>(state.range(0)), 'c'));
      (void)v.Close(fd.value());
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Checkpoint());
  }
  state.counters["state_bytes"] = static_cast<double>(
      v.SnapshotBytes() / std::max<std::uint64_t>(v.SnapshotCount(), 1));
}
BENCHMARK(BM_VerifsCheckpoint)->Arg(1024)->Arg(16384);

void BM_VerifsCheckpointRestoreCycle(benchmark::State& state) {
  verifs::Verifs2 v;
  (void)v.Mkfs();
  (void)v.Mount();
  auto fd = v.Open("/f", fs::kCreate | fs::kWrOnly, 0644);
  if (fd.ok()) {
    (void)v.Write(fd.value(), 0, Bytes(4096, 'r'));
    (void)v.Close(fd.value());
  }
  for (auto _ : state) {
    const auto snap = v.Checkpoint();
    (void)v.Restore(snap.value());
    (void)v.Discard(snap.value());
  }
}
BENCHMARK(BM_VerifsCheckpointRestoreCycle);

void BM_FuseRoundTrip(benchmark::State& state) {
  fuse::FuseChannel channel(nullptr);
  auto hosted = std::make_shared<verifs::Verifs2>();
  fuse::FuseHost host(hosted, &channel);
  fuse::FuseClientFs client(&channel);
  (void)client.Mkfs();
  (void)client.Mount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.GetAttr("/"));
  }
}
BENCHMARK(BM_FuseRoundTrip);

void BM_AbstractionWalk(benchmark::State& state) {
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  auto ext2 = std::make_shared<fs::Ext2Fs>(disk);
  vfs::Vfs v(ext2, nullptr);
  (void)ext2->Mkfs();
  (void)v.Mount();
  for (int i = 0; i < state.range(0); ++i) {
    auto fd = v.Open("/f" + std::to_string(i), fs::kCreate | fs::kWrOnly,
                     0644);
    if (fd.ok()) {
      (void)v.Write(fd.value(), 0, Bytes(1024, 'w'));
      (void)v.Close(fd.value());
    }
  }
  const core::AbstractionOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ComputeAbstractState(v, options));
  }
  state.counters["files"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AbstractionWalk)->Arg(4)->Arg(16);

// ---------------------------------------------------------------------------
// Incremental-vs-full ablation (DESIGN.md §7.4): one single-path
// operation per iteration followed by one abstract digest, over
// tree size x file size x op mix. The full variant re-walks and
// re-reads everything per step (Algorithm 1 literally); the incremental
// variant re-hashes only the touched paths and folds the cache.
// Run `scripts/bench_micro.sh` for the JSON form tracked in
// EXPERIMENTS.md.

struct AblationTree {
  std::shared_ptr<verifs::Verifs2> filesystem;
  std::unique_ptr<vfs::Vfs> v;
  std::vector<std::string> files;
};

AblationTree MakeAblationTree(std::int64_t files, std::int64_t file_size) {
  AblationTree tree;
  tree.filesystem = std::make_shared<verifs::Verifs2>();
  tree.v = std::make_unique<vfs::Vfs>(tree.filesystem, nullptr);
  (void)tree.filesystem->Mkfs();
  (void)tree.v->Mount();
  for (int d = 0; d < 8; ++d) {
    (void)tree.v->Mkdir("/d" + std::to_string(d), 0755);
  }
  for (std::int64_t i = 0; i < files; ++i) {
    std::string path =
        "/d" + std::to_string(i % 8) + "/f" + std::to_string(i);
    auto fd = tree.v->Open(path, fs::kCreate | fs::kWrOnly, 0644);
    if (fd.ok()) {
      (void)tree.v->Write(fd.value(), 0,
                          Bytes(static_cast<std::size_t>(file_size), 'a'));
      (void)tree.v->Close(fd.value());
    }
    tree.files.push_back(std::move(path));
  }
  return tree;
}

// Op mixes: 0 = overwrite one file in place, 1 = create/unlink churn,
// 2 = rename one file back and forth. All single-path mutations — the
// case where the full recompute's O(tree) cost is pure overhead.
core::Operation AblationOp(const AblationTree& tree, std::int64_t mix,
                           std::uint64_t step) {
  const std::string& target = tree.files[step % tree.files.size()];
  core::Operation op;
  switch (mix) {
    case 0:
      op.kind = core::OpKind::kWriteFile;
      op.path = target;
      op.size = 64;
      op.fill = static_cast<std::uint8_t>(step);
      break;
    case 1:
      op.kind = step % 2 == 0 ? core::OpKind::kCreateFile
                              : core::OpKind::kUnlink;
      op.path = "/churn";
      break;
    default:
      op.kind = core::OpKind::kRename;
      op.path = step % 2 == 0 ? target : target + "~";
      op.path2 = step % 2 == 0 ? target + "~" : target;
      break;
  }
  return op;
}

void BM_AbstractionStepFull(benchmark::State& state) {
  AblationTree tree = MakeAblationTree(state.range(0), state.range(1));
  const core::AbstractionOptions options;
  std::uint64_t step = 0;
  for (auto _ : state) {
    (void)core::ExecuteOp(*tree.v, AblationOp(tree, state.range(2), step++));
    benchmark::DoNotOptimize(core::ComputeAbstractState(*tree.v, options));
  }
  state.counters["paths"] = static_cast<double>(tree.files.size() + 8);
}
BENCHMARK(BM_AbstractionStepFull)
    ->ArgsProduct({{16, 64, 256}, {256, 4096}, {0, 1, 2}});

void BM_AbstractionStepIncremental(benchmark::State& state) {
  AblationTree tree = MakeAblationTree(state.range(0), state.range(1));
  const core::AbstractionOptions options;
  core::IncrementalAbstraction inc;
  (void)inc.FullRecompute(*tree.v, options);
  std::uint64_t step = 0;
  for (auto _ : state) {
    const core::Operation op = AblationOp(tree, state.range(2), step++);
    const core::OpOutcome outcome = core::ExecuteOp(*tree.v, op);
    benchmark::DoNotOptimize(
        inc.Refresh(*tree.v, options, core::TouchedPaths(op, outcome)));
  }
  state.counters["paths"] = static_cast<double>(tree.files.size() + 8);
  state.counters["rehashed_per_step"] =
      benchmark::Counter(static_cast<double>(inc.nodes_rehashed()),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AbstractionStepIncremental)
    ->ArgsProduct({{16, 64, 256}, {256, 4096}, {0, 1, 2}});

// One device capture, range(1) one-byte writes to distinct 4 KB blocks,
// and one restore, on a RAM disk of range(0) bytes whose every block has
// been written (the worst case for sharing: no block is a free null).
// The capture and the restore copy block pointers; each write after the
// capture clones the one block it touches. So the time per iteration
// grows with the device's block count and the blocks dirtied, not with
// the image's bytes.
void BM_DeviceSnapshotRestore(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  const auto dirty = static_cast<std::uint64_t>(state.range(1));
  storage::RamDisk disk("d", bytes, nullptr);
  (void)disk.Write(0, Bytes(bytes, 0x5a));
  const std::uint64_t stride = bytes / 64;
  const Bytes one_byte = {0xa5};
  for (auto _ : state) {
    const storage::DeviceSnapshot snapshot = disk.SnapshotContents();
    for (std::uint64_t i = 0; i < dirty; ++i) {
      benchmark::DoNotOptimize(disk.Write(i * stride, one_byte));
    }
    benchmark::DoNotOptimize(disk.RestoreContents(snapshot));
  }
  state.counters["device_blocks"] =
      static_cast<double>(bytes / kCowBlockSize);
  state.counters["dirty_blocks"] = static_cast<double>(dirty);
}
BENCHMARK(BM_DeviceSnapshotRestore)
    ->ArgNames({"bytes", "dirty"})
    ->ArgsProduct({{256 * 1024, 16 * 1024 * 1024}, {0, 1, 64}});

void BM_Ext2MountCycle(benchmark::State& state) {
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  fs::Ext2Fs ext2(disk);
  (void)ext2.Mkfs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ext2.Mount());
    benchmark::DoNotOptimize(ext2.Unmount());
  }
}
BENCHMARK(BM_Ext2MountCycle);

}  // namespace

BENCHMARK_MAIN();
