// Partial-order reduction test suite (DESIGN.md §7.6).
//
// Three layers:
//  * unit tests for PathCovers / FootprintsIndependent / DependenceMatrix;
//  * differential proofs that sleep-set DFS reports the SAME state union
//    and the same violations as full DFS on closed spaces while
//    expanding measurably fewer transitions — on a toy two-counter
//    system with hand-written footprints, on the real VeriFS pair (with
//    and without hard-link aliasing in the pool), and on a 3-member
//    VeriFS1/VeriFS2/spec panel;
//  * a randomized soundness harness: matrix-independent op pairs run in
//    both orders from the same prefix must produce identical abstract
//    digests and identical per-op outcomes, on ext2, VeriFS1 and
//    VeriFS2 alike.
//
// Runs under `ctest -L por`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "fs/ext2/ext2fs.h"
#include "mc/explorer.h"
#include "mc/por.h"
#include "mc/sharded_table.h"
#include "mc/swarm.h"
#include "mcfs/abstraction.h"
#include "mcfs/harness.h"
#include "mcfs/trace.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::mc {
namespace {

// ---------------------------------------------------------------------------
// Unit layer

TEST(PathCoversTest, AncestorOrSelfLexically) {
  EXPECT_TRUE(PathCovers("/a", "/a"));
  EXPECT_TRUE(PathCovers("/a", "/a/b"));
  EXPECT_TRUE(PathCovers("/a", "/a/b/c"));
  EXPECT_FALSE(PathCovers("/a", "/ab"));     // no boundary
  EXPECT_FALSE(PathCovers("/a/b", "/a"));    // descendant covers nothing up
  EXPECT_FALSE(PathCovers("/a", "/b"));
  EXPECT_TRUE(PathCovers("/", "/anything"));
  EXPECT_TRUE(PathCovers("/", "/"));
  EXPECT_FALSE(PathCovers("/a", ""));
}

ActionFootprint Fp(std::vector<std::string> paths, bool reads_only = false) {
  ActionFootprint fp;
  fp.paths = std::move(paths);
  fp.reads_only = reads_only;
  return fp;
}

TEST(FootprintsIndependentTest, DisjointSubtreesCommute) {
  EXPECT_TRUE(FootprintsIndependent(Fp({"/f0"}), Fp({"/f1"})));
  EXPECT_TRUE(FootprintsIndependent(Fp({"/d0/f2", "/d0"}), Fp({"/d1"})));
  // Shared path: dependent.
  EXPECT_FALSE(FootprintsIndependent(Fp({"/f0"}), Fp({"/f0"})));
  // Ancestor containment, both directions.
  EXPECT_FALSE(FootprintsIndependent(Fp({"/d0"}), Fp({"/d0/f2"})));
  EXPECT_FALSE(FootprintsIndependent(Fp({"/d0/f2"}), Fp({"/d0"})));
}

TEST(FootprintsIndependentTest, ReadOnlyPairsAlwaysCommute) {
  // Two observers commute even on the same path...
  EXPECT_TRUE(FootprintsIndependent(Fp({"/f0"}, true), Fp({"/f0"}, true)));
  // ...but a read against a write on the same path does not.
  EXPECT_FALSE(FootprintsIndependent(Fp({"/f0"}, true), Fp({"/f0"})));
}

TEST(FootprintsIndependentTest, FullFootprintDependsOnEverything) {
  ActionFootprint full;
  full.full = true;
  EXPECT_FALSE(FootprintsIndependent(full, Fp({"/elsewhere"})));
  EXPECT_FALSE(FootprintsIndependent(Fp({"/elsewhere"}), full));
  EXPECT_FALSE(FootprintsIndependent(full, full));
}

// ---------------------------------------------------------------------------
// Toy differential: the two-counter system, with footprints that make
// a-ops and b-ops provably independent.

class ToyPorSystem : public System {
 public:
  explicit ToyPorSystem(int n) : n_(n) {}

  std::size_t ActionCount() const override { return 6; }

  std::string ActionName(std::size_t action) const override {
    static const char* kNames[] = {"inc-a", "dec-a",   "inc-b",
                                   "dec-b", "reset-a", "reset-b"};
    return kNames[action];
  }

  Status ApplyAction(std::size_t action) override {
    switch (action) {
      case 0: a_ = std::min(a_ + 1, n_ - 1); break;
      case 1: a_ = std::max(a_ - 1, 0); break;
      case 2: b_ = std::min(b_ + 1, n_ - 1); break;
      case 3: b_ = std::max(b_ - 1, 0); break;
      case 4: a_ = 0; break;
      case 5: b_ = 0; break;
    }
    return Status::Ok();
  }

  bool violation_detected() const override { return false; }
  std::string violation_report() const override { return ""; }

  Md5Digest AbstractHash() override {
    Md5 md5;
    md5.UpdateU64(static_cast<std::uint64_t>(a_));
    md5.UpdateU64(static_cast<std::uint64_t>(b_));
    return md5.Final();
  }

  Result<SnapshotId> SaveConcrete() override {
    const SnapshotId id = next_id_++;
    snapshots_[id] = {a_, b_};
    return id;
  }

  Status RestoreConcrete(SnapshotId id) override {
    auto it = snapshots_.find(id);
    if (it == snapshots_.end()) return Errno::kENOENT;
    a_ = it->second.first;
    b_ = it->second.second;
    return Status::Ok();
  }

  Status DiscardConcrete(SnapshotId id) override {
    return snapshots_.erase(id) == 1 ? Status::Ok() : Status(Errno::kENOENT);
  }

  std::uint64_t ConcreteStateBytes() const override { return 16; }

  // Every a-op touches only "/a", every b-op only "/b": the cross pairs
  // commute and POR has real work to do.
  ActionFootprint StaticActionFootprint(std::size_t action) const override {
    ActionFootprint fp;
    fp.paths = {action == 0 || action == 1 || action == 4 ? "/a" : "/b"};
    return fp;
  }

 private:
  int n_;
  int a_ = 0;
  int b_ = 0;
  SnapshotId next_id_ = 1;
  std::map<SnapshotId, std::pair<int, int>> snapshots_;
};

std::vector<Md5Digest> SortedDigests(const VisitedTable& table) {
  std::vector<Md5Digest> digests;
  table.ForEach([&digests](const Md5Digest& d) { digests.push_back(d); });
  std::sort(digests.begin(), digests.end(),
            [](const Md5Digest& a, const Md5Digest& b) {
              return a.bytes < b.bytes;
            });
  return digests;
}

TEST(PorDifferentialTest, DependenceMatrixDefaultsToFullyDependent) {
  // A System that does not describe footprints inherits the full-
  // footprint default: zero reducible actions, and the explorer keeps
  // the POR machinery off even with the flag set.
  class Opaque : public ToyPorSystem {
   public:
    using ToyPorSystem::ToyPorSystem;
    ActionFootprint StaticActionFootprint(std::size_t a) const override {
      return System::StaticActionFootprint(a);
    }
  };
  Opaque opaque(4);
  const DependenceMatrix matrix = DependenceMatrix::Build(opaque);
  EXPECT_EQ(matrix.action_count(), 6u);
  EXPECT_EQ(matrix.reducible_actions(), 0u);
  EXPECT_FALSE(matrix.independent(0, 2));

  ExplorerOptions options;
  options.max_operations = 1'000'000;
  options.max_depth = 500;
  options.por = true;
  Explorer explorer(opaque, options);
  const ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.por_active);
  EXPECT_EQ(stats.por_pruned_transitions, 0u);
  EXPECT_EQ(stats.unique_states, 16u);
}

TEST(PorDifferentialTest, ToyCounterSleepSetsKeepTheStateSetExactly) {
  constexpr int kN = 8;  // 64 reachable states
  ExplorerOptions base;
  base.mode = SearchMode::kDfs;
  base.max_operations = 1'000'000;
  base.max_depth = 500;  // effectively unbounded: the space closes first
  base.seed = 13;

  base.por = false;
  ToyPorSystem full_system(kN);
  Explorer full(full_system, base);
  const ExploreStats full_stats = full.Run();
  ASSERT_LT(full_stats.operations, base.max_operations);  // exhausted
  ASSERT_EQ(full_stats.unique_states, 64u);
  EXPECT_FALSE(full_stats.por_active);

  base.por = true;
  ToyPorSystem por_system(kN);
  Explorer por(por_system, base);
  const ExploreStats por_stats = por.Run();
  ASSERT_LT(por_stats.operations, base.max_operations);
  EXPECT_TRUE(por_stats.por_active);

  // Sleep sets prune TRANSITIONS, never states: the visited set is
  // identical digest by digest. This fully-commutative lattice is the
  // worst case for sleep sets WITH state matching — every interior
  // state is revisited along a commuted path whose sleep set is
  // disjoint from the stored one, so the awakening rule eventually
  // repays each pruned transition and the net saving can reach zero.
  // The strict-reduction claim lives in the VeriFS differential below,
  // whose state graph is not a uniform diamond lattice; here we pin
  // exactness plus the fact that both halves of the machinery (pruning
  // AND awakening) actually fired.
  EXPECT_EQ(por_stats.unique_states, 64u);
  EXPECT_EQ(SortedDigests(por.visited()), SortedDigests(full.visited()));
  EXPECT_LE(por_stats.operations, full_stats.operations);
  EXPECT_GT(por_stats.por_pruned_transitions, 0u);
  EXPECT_GT(por_stats.por_sleep_awakened, 0u);

  // Different seeds reorder the search but must preserve both the union
  // and exhaustion — the sleep-awakening rule is what makes that hold.
  for (const std::uint64_t seed : {1ull, 99ull, 1234ull}) {
    base.seed = seed;
    ToyPorSystem seeded_system(kN);
    Explorer seeded(seeded_system, base);
    const ExploreStats seeded_stats = seeded.Run();
    EXPECT_EQ(seeded_stats.unique_states, 64u) << "seed " << seed;
    EXPECT_EQ(SortedDigests(seeded.visited()), SortedDigests(full.visited()))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Engine differential: the real VeriFS1/VeriFS2 pair, and a panel that
// adds the executable spec as a third member, on a closed space.

core::McfsConfig PorVerifsConfig(bool include_link_ops) {
  core::McfsConfig config;
  // The engine enumerates over the feature INTERSECTION of the pair and
  // VeriFS1 has no hard links (paper §5), so the aliased variant runs
  // the VeriFS2 twin instead — same closure discipline, link ops kept.
  config.fs_a.kind =
      include_link_ops ? core::FsKind::kVerifs2 : core::FsKind::kVerifs1;
  config.fs_a.strategy = core::StateStrategy::kIoctl;
  config.fs_b.kind = core::FsKind::kVerifs2;
  config.fs_b.strategy = core::StateStrategy::kIoctl;
  config.engine.pool = core::ParameterPool::Tiny();
  if (include_link_ops) {
    // Adding link + symlink ops multiplies the closure, so the aliased
    // variant keeps the un-widened Tiny pool (one file) — the space must
    // CLOSE below the depth bound or the full-vs-reduced state unions
    // are not comparable.
    config.engine.pool.include_link_ops = true;
  } else {
    // Tiny widened to two files/two fill bytes: a small closure with
    // plenty of commuting pairs (ops on /f0 vs /f1).
    config.engine.pool.file_paths = {"/f0", "/f1"};
    config.engine.pool.fill_bytes = {0x41, 0x42};
  }
  return config;
}

// Each call builds a fresh engine; the shared_ptr keeps whatever owns its
// members alive.
using EngineFactory = std::function<std::shared_ptr<core::SyscallEngine>()>;

EngineFactory PairEngine(bool include_link_ops) {
  return [include_link_ops]() -> std::shared_ptr<core::SyscallEngine> {
    auto mcfs = core::Mcfs::Create(PorVerifsConfig(include_link_ops));
    if (!mcfs.ok()) return nullptr;
    std::shared_ptr<core::Mcfs> owner = std::move(mcfs).value();
    return {owner, &owner->engine()};
  };
}

// VeriFS1, VeriFS2 and SpecFs, all under the ioctl strategy, over the
// pair's widened Tiny pool: the feature intersection is VeriFS1's, so
// the action set matches the pair's.
EngineFactory PanelEngine() {
  return []() -> std::shared_ptr<core::SyscallEngine> {
    struct Panel {
      std::vector<std::unique_ptr<core::FsUnderTest>> members;
      std::unique_ptr<core::SyscallEngine> engine;
    };
    auto panel = std::make_shared<Panel>();
    std::vector<core::FsUnderTest*> raw;
    for (const core::FsKind kind : {core::FsKind::kVerifs1,
                                    core::FsKind::kVerifs2,
                                    core::FsKind::kSpec}) {
      core::FsUnderTestConfig config;
      config.kind = kind;
      config.strategy = core::StateStrategy::kIoctl;
      config.fuse_transport = kind != core::FsKind::kSpec;
      auto fut = core::FsUnderTest::Create(config, nullptr);
      if (!fut.ok()) return nullptr;
      raw.push_back(fut.value().get());
      panel->members.push_back(std::move(fut).value());
    }
    panel->engine = std::make_unique<core::SyscallEngine>(
        raw, PorVerifsConfig(/*include_link_ops=*/false).engine);
    return {panel, panel->engine.get()};
  };
}

// `strict`: POR must expand strictly fewer transitions, not just no more.
void RunEngineDifferential(const EngineFactory& make, bool strict) {
  ExplorerOptions base;
  base.mode = SearchMode::kDfs;
  base.max_operations = 500'000;
  // DFS depth can reach the state COUNT on a closed space (the search
  // path needs only distinct states, not a geodesic), so the bound must
  // sit far above it or the truncation makes the unions incomparable.
  base.max_depth = 100'000;
  base.seed = 7;

  base.por = false;
  const auto full_engine = make();
  ASSERT_NE(full_engine, nullptr);
  Explorer full(*full_engine, base);
  const ExploreStats full_stats = full.Run();
  ASSERT_FALSE(full_stats.violation_found) << full_stats.violation_report;
  ASSERT_LT(full_stats.operations, base.max_operations)
      << "full DFS must exhaust the space for an order-independent "
         "comparison";
  ASSERT_LT(full_stats.max_depth_reached, base.max_depth - 1)
      << "space does not close below the depth bound; the state unions "
         "of different search orders are incomparable when truncated";

  base.por = true;
  const auto por_engine = make();
  ASSERT_NE(por_engine, nullptr);
  Explorer por(*por_engine, base);
  const ExploreStats por_stats = por.Run();
  ASSERT_FALSE(por_stats.violation_found) << por_stats.violation_report;
  ASSERT_LT(por_stats.operations, base.max_operations);
  EXPECT_TRUE(por_stats.por_active);

  // The acceptance bar: identical canonical state union, no extra
  // transitions expanded. Strict reduction is asserted on the widened
  // two-file pool, whose /f0-vs-/f1 clusters leave permanently slept
  // transitions; the single-file aliased pool is confluent enough that
  // the awakening rule can repay every prune (same worst case as the
  // toy lattice), so there the bar is exactness, not savings.
  EXPECT_EQ(por_stats.unique_states, full_stats.unique_states);
  EXPECT_EQ(SortedDigests(por.visited()), SortedDigests(full.visited()));
  if (strict) {
    EXPECT_LT(por_stats.operations, full_stats.operations);
  } else {
    EXPECT_LE(por_stats.operations, full_stats.operations);
  }
  EXPECT_GT(por_stats.por_pruned_transitions, 0u);
  std::cout << "[ POR      ] full ops=" << full_stats.operations
            << " por ops=" << por_stats.operations
            << " pruned=" << por_stats.por_pruned_transitions
            << " awakened=" << por_stats.por_sleep_awakened << "\n";
}

TEST(PorDifferentialTest, VerifsPairMatchesFullDfsExactly) {
  RunEngineDifferential(PairEngine(/*include_link_ops=*/false),
                        /*strict=*/true);
}

TEST(PorDifferentialTest, VerifsPairWithHardLinksMatchesFullDfsExactly) {
  // Hard links alias two pool paths to one inode; the alias-class
  // expansion must keep the reduced search exact, not just smaller.
  RunEngineDifferential(PairEngine(/*include_link_ops=*/true),
                        /*strict=*/false);
}

TEST(PorDifferentialTest, SpecPanelMatchesFullDfsExactly) {
  // A panel gets the pair's footprints: same exactness, same savings.
  RunEngineDifferential(PanelEngine(), /*strict=*/true);
}

TEST(PorDifferentialTest, ViolationsSurviveTheReduction) {
  // Arm a VeriFS1 mutant: both the full and the reduced search must
  // still detect the discrepancy (POR may find it along a different
  // trail — the violation SET is what is preserved, not the trail).
  for (const bool por : {false, true}) {
    core::McfsConfig config = PorVerifsConfig(false);
    // Tiny pool has no metadata ops, so pick a data-path mutant: VeriFS1
    // silently ignores shrinking truncates while VeriFS2 honours them.
    config.fs_a.bugs.truncate_shrink_noop = true;
    ExplorerOptions base;
    base.mode = SearchMode::kDfs;
    base.max_operations = 500'000;
    base.max_depth = 200;
    base.seed = 7;
    base.por = por;
    auto mcfs = core::Mcfs::Create(config);
    ASSERT_TRUE(mcfs.ok());
    Explorer explorer(mcfs.value()->engine(), base);
    const ExploreStats stats = explorer.Run();
    EXPECT_TRUE(stats.violation_found) << "por=" << por;
    EXPECT_FALSE(stats.violation_trail.empty()) << "por=" << por;
  }
}

// ---------------------------------------------------------------------------
// Gating: POR must deactivate wherever the sleep bookkeeping is unsound.

TEST(PorGatingTest, BitstateAndSharedStoreRunsKeepPorOff) {
  {
    ToyPorSystem system(4);
    ExplorerOptions options;
    options.max_operations = 100'000;
    options.max_depth = 16;
    options.use_bitstate = true;
    options.bitstate_bits = 1 << 16;
    options.por = true;
    Explorer explorer(system, options);
    const ExploreStats stats = explorer.Run();
    EXPECT_FALSE(stats.por_active);
    EXPECT_EQ(stats.por_pruned_transitions, 0u);
  }
  {
    ToyPorSystem system(4);
    ShardedVisitedTable store;
    ExplorerOptions options;
    options.max_operations = 100'000;
    options.max_depth = 500;
    options.shared_store = &store;
    options.por = true;
    Explorer explorer(system, options);
    const ExploreStats stats = explorer.Run();
    EXPECT_FALSE(stats.por_active);
    EXPECT_EQ(stats.por_pruned_transitions, 0u);
    EXPECT_EQ(stats.unique_states, 16u);
  }
}

class ToyPorInstance : public SwarmInstance {
 public:
  explicit ToyPorInstance(int n) : system_(n) {}
  System& system() override { return system_; }
  SimClock* clock() override { return &clock_; }

 private:
  ToyPorSystem system_;
  SimClock clock_;
};

TEST(PorGatingTest, StealingSwarmGatesPorOffAndStaysExact) {
  SwarmOptions options;
  options.workers = 4;
  options.run_parallel = true;
  options.cooperative = true;
  options.steal_work = true;
  options.collect_union = true;
  options.base.mode = SearchMode::kDfs;
  options.base.max_operations = 1'000'000;
  options.base.max_depth = 500;
  options.base.por = true;  // requested, but swarm modes must ignore it
  options.base_seed = 29;
  Swarm swarm(options);
  SwarmResult result =
      swarm.Run([](int) { return std::make_unique<ToyPorInstance>(8); });

  EXPECT_EQ(result.merged_unique_states, 64u);
  EXPECT_EQ(result.por_pruned_transitions, 0u);
  EXPECT_EQ(result.por_sleep_awakened, 0u);
  for (const ExploreStats& stats : result.per_worker) {
    EXPECT_FALSE(stats.por_active);
  }
}

// ---------------------------------------------------------------------------
// store_batch_size = 0 clamp (satellite): a zero batch must behave like
// batch size 1 (synchronous credit), not lose or defer credit forever.

TEST(StoreBatchTest, ZeroBatchSizeBehavesLikeOne) {
  std::array<std::uint64_t, 2> uniques{};
  std::array<std::uint64_t, 2> ops{};
  for (int i = 0; i < 2; ++i) {
    ToyPorSystem system(6);
    ShardedVisitedTable store;
    ExplorerOptions options;
    options.mode = SearchMode::kRandomWalk;
    options.max_operations = 3000;
    options.max_depth = 50;
    options.seed = 21;
    options.shared_store = &store;
    options.store_batch_size = static_cast<std::size_t>(i);  // 0 then 1
    Explorer explorer(system, options);
    const ExploreStats stats = explorer.Run();
    uniques[static_cast<std::size_t>(i)] = stats.unique_states;
    ops[static_cast<std::size_t>(i)] = stats.operations;
    // Every locally-new state's credit must have been resolved against
    // the store by the end of the run.
    EXPECT_EQ(stats.unique_states, store.size());
  }
  EXPECT_EQ(uniques[0], uniques[1]);
  EXPECT_EQ(ops[0], ops[1]);
}

// ---------------------------------------------------------------------------
// Randomized commutation soundness: matrix-independent pairs must truly
// commute on real file systems — same digests, same per-op outcomes.

struct FsStack {
  std::shared_ptr<storage::RamDisk> disk;
  fs::FileSystemPtr filesystem;
  std::unique_ptr<vfs::Vfs> v;
};

FsStack MakeFsStack(const std::string& kind) {
  FsStack stack;
  if (kind == "ext2") {
    stack.disk = std::make_shared<storage::RamDisk>("d", 512 * 1024, nullptr);
    stack.filesystem = std::make_shared<fs::Ext2Fs>(stack.disk);
  } else if (kind == "verifs1") {
    stack.filesystem = std::make_shared<verifs::Verifs1>();
  } else {
    stack.filesystem = std::make_shared<verifs::Verifs2>();
  }
  stack.v = std::make_unique<vfs::Vfs>(stack.filesystem, nullptr);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.v->Mount().ok());
  return stack;
}

void RunCommutationHarness(const std::string& kind, std::uint32_t seed) {
  // Footprint oracle: a real engine over the full Default pool WITH link
  // ops, so the alias-class expansion is part of what is being audited.
  core::McfsConfig oracle_config;
  oracle_config.fs_a.kind = core::FsKind::kVerifs1;
  oracle_config.fs_a.strategy = core::StateStrategy::kIoctl;
  oracle_config.fs_b.kind = core::FsKind::kVerifs2;
  oracle_config.fs_b.strategy = core::StateStrategy::kIoctl;
  auto oracle = core::Mcfs::Create(oracle_config);
  ASSERT_TRUE(oracle.ok());
  const core::SyscallEngine& engine = oracle.value()->engine();
  const DependenceMatrix matrix = DependenceMatrix::Build(engine);
  const std::vector<core::Operation>& actions = engine.actions();
  ASSERT_GT(matrix.reducible_actions(), 0u);

  std::mt19937 rng(seed);
  int tested = 0;
  for (int trial = 0; trial < 120 && tested < 25; ++trial) {
    const std::size_t i = rng() % actions.size();
    const std::size_t j = rng() % actions.size();
    if (i == j || !matrix.independent(i, j)) continue;

    // A short random warm-up makes the pre-state nontrivial (files
    // exist, directories are populated) without losing determinism.
    std::vector<std::size_t> prefix(rng() % 7);
    for (std::size_t& p : prefix) p = rng() % actions.size();

    auto run = [&](std::size_t first, std::size_t second,
                   std::array<Errno, 2>* errors) {
      FsStack stack = MakeFsStack(kind);
      for (const std::size_t p : prefix) {
        (void)core::ExecuteOp(*stack.v, actions[p]);
      }
      (*errors)[0] = core::ExecuteOp(*stack.v, actions[first]).error;
      (*errors)[1] = core::ExecuteOp(*stack.v, actions[second]).error;
      core::IncrementalAbstraction abstraction;
      auto digest =
          abstraction.FullRecompute(*stack.v, core::AbstractionOptions{});
      EXPECT_TRUE(digest.ok());
      return digest.value_or(Md5Digest{});
    };

    std::array<Errno, 2> ij_errors{};
    std::array<Errno, 2> ji_errors{};
    const Md5Digest d_ij = run(i, j, &ij_errors);
    const Md5Digest d_ji = run(j, i, &ji_errors);
    EXPECT_EQ(d_ij, d_ji)
        << kind << ": " << actions[i].ToString() << " and "
        << actions[j].ToString()
        << " are matrix-independent but do not commute (trial " << trial
        << ")";
    // Each op's outcome must be order-insensitive too — that is what
    // makes the violation set survive the reduction.
    EXPECT_EQ(ij_errors[0], ji_errors[1]) << kind << ": "
                                          << actions[i].ToString();
    EXPECT_EQ(ij_errors[1], ji_errors[0]) << kind << ": "
                                          << actions[j].ToString();
    ++tested;
  }
  EXPECT_GE(tested, 10) << "harness found too few independent pairs";
}

TEST(PorSoundnessTest, IndependentPairsCommuteOnExt2) {
  RunCommutationHarness("ext2", 101);
}

TEST(PorSoundnessTest, IndependentPairsCommuteOnVerifs1) {
  RunCommutationHarness("verifs1", 103);
}

TEST(PorSoundnessTest, IndependentPairsCommuteOnVerifs2) {
  RunCommutationHarness("verifs2", 107);
}

TEST(PorSoundnessTest, LinkDoesNotCommuteWithRenameOfItsSource) {
  // The concrete counterexample behind the kLink footprint rules: from a
  // state where /d0/f2 exists, link-then-rename leaves TWO names for the
  // inode, rename-then-link leaves one (the link fails ENOENT). The
  // matrix must never call this pair independent.
  core::Operation link{.kind = core::OpKind::kLink,
                       .path = "/d0/f2",
                       .path2 = "/hardlink0"};
  core::Operation rename{.kind = core::OpKind::kRename,
                         .path = "/d0/f2",
                         .path2 = "/f1"};
  EXPECT_FALSE(FootprintsIndependent(core::StaticTouchedPaths(link),
                                     core::StaticTouchedPaths(rename)));

  auto prepare = [] {
    FsStack stack = MakeFsStack("verifs2");  // VeriFS1 has no hard links
    EXPECT_TRUE(stack.v->Mkdir("/d0", 0755).ok());
    auto fd = stack.v->Open("/d0/f2", fs::kCreate | fs::kWrOnly, 0644);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(stack.v->Close(fd.value()).ok());
    return stack;
  };
  auto digest_of = [](FsStack& stack) {
    core::IncrementalAbstraction abstraction;
    auto digest =
        abstraction.FullRecompute(*stack.v, core::AbstractionOptions{});
    EXPECT_TRUE(digest.ok());
    return digest.value_or(Md5Digest{});
  };

  FsStack link_first = prepare();
  EXPECT_EQ(core::ExecuteOp(*link_first.v, link).error, Errno::kOk);
  EXPECT_EQ(core::ExecuteOp(*link_first.v, rename).error, Errno::kOk);

  FsStack rename_first = prepare();
  EXPECT_EQ(core::ExecuteOp(*rename_first.v, rename).error, Errno::kOk);
  EXPECT_EQ(core::ExecuteOp(*rename_first.v, link).error, Errno::kENOENT);

  EXPECT_NE(digest_of(link_first), digest_of(rename_first));
}

TEST(PorSoundnessTest, AliasClassesMakeHardLinkNamesDependent) {
  // write(/f0) mutates the node hashed under /hardlink0 once the link
  // exists, so the engine's alias-expanded footprints must declare every
  // (/f0 op, /hardlink0 op) pair dependent even though the raw paths
  // are lexically disjoint.
  core::McfsConfig config;
  // VeriFS2 twin: the feature intersection must keep hard links or the
  // pool never enumerates the /hardlink0 ops under test.
  config.fs_a.kind = core::FsKind::kVerifs2;
  config.fs_a.strategy = core::StateStrategy::kIoctl;
  config.fs_b.kind = core::FsKind::kVerifs2;
  config.fs_b.strategy = core::StateStrategy::kIoctl;
  auto mcfs = core::Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  const core::SyscallEngine& engine = mcfs.value()->engine();
  const std::vector<core::Operation>& actions = engine.actions();

  std::size_t write_f0 = actions.size();
  std::size_t unlink_hardlink = actions.size();
  for (std::size_t a = 0; a < actions.size(); ++a) {
    if (actions[a].kind == core::OpKind::kWriteFile &&
        actions[a].path == "/f0" && write_f0 == actions.size()) {
      write_f0 = a;
    }
    if (actions[a].kind == core::OpKind::kUnlink &&
        actions[a].path == "/hardlink0") {
      unlink_hardlink = a;
    }
  }
  ASSERT_LT(write_f0, actions.size());
  ASSERT_LT(unlink_hardlink, actions.size());

  const DependenceMatrix matrix = DependenceMatrix::Build(engine);
  EXPECT_FALSE(matrix.independent(write_f0, unlink_hardlink));
  // The raw (engine-less) footprints WOULD have called them independent
  // — the alias expansion is what closes the hole.
  EXPECT_TRUE(FootprintsIndependent(
      core::StaticTouchedPaths(actions[write_f0]),
      core::StaticTouchedPaths(actions[unlink_hardlink])));
}

}  // namespace
}  // namespace mcfs::mc
