// Model-checker core tests: visited table (with resize reporting),
// bitstate filter, memory model, DFS/random-walk exploration over a toy
// counter system with known state-space size, violation trails, and
// swarm verification.
#include <gtest/gtest.h>

#include "mc/bitstate.h"
#include "mc/explorer.h"
#include "mc/hash_table.h"
#include "mc/memory_model.h"
#include "mc/swarm.h"

namespace mcfs::mc {
namespace {

Md5Digest DigestOf(std::uint64_t v) {
  Md5 md5;
  md5.UpdateU64(v);
  return md5.Final();
}

// ---------------------------------------------------------------------------
// VisitedTable

TEST(VisitedTableTest, InsertAndDuplicate) {
  VisitedTable table(16);
  EXPECT_TRUE(table.Insert(DigestOf(1)).inserted);
  EXPECT_TRUE(table.Insert(DigestOf(2)).inserted);
  EXPECT_FALSE(table.Insert(DigestOf(1)).inserted);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Contains(DigestOf(1)));
  EXPECT_FALSE(table.Contains(DigestOf(3)));
}

TEST(VisitedTableTest, GrowsAndReportsResizes) {
  VisitedTable table(16);
  bool saw_resize = false;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto result = table.Insert(DigestOf(i));
    EXPECT_TRUE(result.inserted);
    if (result.resized) {
      saw_resize = true;
      EXPECT_GT(result.rehashed, 0u);
    }
  }
  EXPECT_TRUE(saw_resize);
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_GT(table.resize_count(), 2u);
  // All members still present after rehashing.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(table.Contains(DigestOf(i))) << i;
  }
}

TEST(VisitedTableTest, BytesGrowWithCapacity) {
  VisitedTable small(16);
  VisitedTable big(1 << 16);
  EXPECT_GT(big.bytes_used(), small.bytes_used());
}

TEST(VisitedTableTest, ForEachVisitsEverything) {
  VisitedTable table(16);
  for (std::uint64_t i = 0; i < 50; ++i) table.Insert(DigestOf(i));
  std::size_t count = 0;
  table.ForEach([&count](const Md5Digest&) { ++count; });
  EXPECT_EQ(count, 50u);
}

// A digest whose low half (the probe key) is fixed and whose high half
// varies: the worst case for the open-addressing probe sequence.
Md5Digest CollidingDigest(std::uint64_t hi) {
  Md5Digest d;
  for (int i = 0; i < 8; ++i) d.bytes[i] = 0x5a;  // identical lo64
  for (int i = 0; i < 8; ++i) {
    d.bytes[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return d;
}

TEST(VisitedTableTest, GrowPreservesMembershipUnderCollisions) {
  // All keys probe from the same start slot; membership must survive
  // the rehash anyway (the probe chains are rebuilt for the new size).
  VisitedTable table(16);
  constexpr std::uint64_t kKeys = 300;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(table.Insert(CollidingDigest(i)).inserted) << i;
  }
  EXPECT_GT(table.resize_count(), 0u);
  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(table.Contains(CollidingDigest(i))) << i;
    EXPECT_FALSE(table.Insert(CollidingDigest(i)).inserted) << i;
  }
  EXPECT_FALSE(table.Contains(CollidingDigest(kKeys)));
}

TEST(VisitedTableTest, DeserializeTruncatedImageReturnsEinval) {
  VisitedTable table(16);
  for (std::uint64_t i = 0; i < 20; ++i) table.Insert(DigestOf(i));
  const Bytes image = table.Serialize();

  // Sliced anywhere — inside the header, between digests, mid-digest —
  // deserialization must fail cleanly, never crash.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                          std::size_t{9}, image.size() / 2,
                          image.size() - 1}) {
    auto result = VisitedTable::Deserialize(ByteView(image.data(), cut));
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
    EXPECT_EQ(result.error(), Errno::kEINVAL) << "cut=" << cut;
  }
  // The intact image still round-trips.
  auto intact = VisitedTable::Deserialize(image);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact.value().size(), 20u);
}

TEST(VisitedTableTest, SerializeRoundTripsSizeWithDuplicateDigests) {
  VisitedTable table(16);
  for (std::uint64_t i = 0; i < 33; ++i) table.Insert(DigestOf(i));
  auto copy = VisitedTable::Deserialize(table.Serialize());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value().size(), table.size());

  // A (corrupt or adversarial) image that lists the same digest thrice:
  // the declared count is 3 but only distinct digests may be counted.
  ByteWriter w;
  w.PutU64(3);
  const Md5Digest dup = DigestOf(7);
  for (int i = 0; i < 3; ++i) {
    w.PutBytes(ByteView(dup.bytes.data(), dup.bytes.size()));
  }
  auto dedup = VisitedTable::Deserialize(w.bytes());
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup.value().size(), 1u);
  EXPECT_TRUE(dedup.value().Contains(dup));
}

// ---------------------------------------------------------------------------
// ConcurrentBitstateFilter on one thread

TEST(BitstateTest, InsertReportsNewness) {
  ConcurrentBitstateFilter filter(1 << 16);
  EXPECT_TRUE(filter.Insert(DigestOf(1)).inserted);
  EXPECT_FALSE(filter.Insert(DigestOf(1)).inserted);
  EXPECT_TRUE(filter.Contains(DigestOf(1)));
  EXPECT_FALSE(filter.Contains(DigestOf(999)));
}

TEST(BitstateTest, NoFalseNegatives) {
  ConcurrentBitstateFilter filter(1 << 18);
  for (std::uint64_t i = 0; i < 5000; ++i) filter.Insert(DigestOf(i));
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_TRUE(filter.Contains(DigestOf(i))) << i;
  }
}

TEST(BitstateTest, FalsePositiveRateIsSmallWhenSparse) {
  ConcurrentBitstateFilter filter(1 << 20);
  for (std::uint64_t i = 0; i < 1000; ++i) filter.Insert(DigestOf(i));
  EXPECT_LT(filter.EstimatedFalsePositiveRate(), 0.001);
  // Memory is tiny compared to a full table of the same reach: that is
  // the point of supertrace mode.
  EXPECT_EQ(filter.bytes_used(), (1u << 20) / 8);
}

TEST(BitstateTest, SaturationRaisesFalsePositiveRate) {
  ConcurrentBitstateFilter filter(1 << 10);
  for (std::uint64_t i = 0; i < 2000; ++i) filter.Insert(DigestOf(i));
  EXPECT_GT(filter.EstimatedFalsePositiveRate(), 0.5);
}

// ---------------------------------------------------------------------------
// MemoryModel

TEST(MemoryModelTest, SwapAccounting) {
  MemoryModelOptions options;
  options.ram_bytes = 1 << 20;
  options.swap_bytes = 4 << 20;
  SimClock clock;
  MemoryModel memory(&clock, options);

  ASSERT_TRUE(memory.SetUsage(512 << 10).ok());
  EXPECT_EQ(memory.swap_used(), 0u);
  EXPECT_EQ(clock.now(), 0u);  // all-RAM growth is free

  ASSERT_TRUE(memory.SetUsage(3 << 20).ok());
  EXPECT_EQ(memory.swap_used(), 2u << 20);
  EXPECT_GT(clock.now(), 0u);  // spill charged swap-out time

  EXPECT_EQ(memory.SetUsage(100 << 20).error(), Errno::kENOMEM);
}

TEST(MemoryModelTest, TouchChargesProportionallyToSwapFraction) {
  MemoryModelOptions options;
  options.ram_bytes = 1 << 20;
  SimClock clock;
  MemoryModel memory(&clock, options);
  ASSERT_TRUE(memory.SetUsage(2 << 20).ok());  // half in swap
  const SimClock::Nanos after_spill = clock.now();
  memory.Touch(1 << 20);
  EXPECT_GT(clock.now(), after_spill);
  const SimClock::Nanos fault_cost = clock.now() - after_spill;

  // With a fully RAM-resident working set, touches are free — the
  // paper's day-13..14 rebound ("the RAM hit rate was high").
  memory.SetLocality(1.0);
  const SimClock::Nanos before = clock.now();
  memory.Touch(1 << 20);
  EXPECT_EQ(clock.now(), before);
  EXPECT_GT(fault_cost, 0u);
}

TEST(MemoryModelTest, NoChargeWhenAllInRam) {
  SimClock clock;
  MemoryModel memory(&clock);  // default 64 GB RAM
  ASSERT_TRUE(memory.SetUsage(1 << 30).ok());
  memory.Touch(1 << 30);
  EXPECT_EQ(clock.now(), 0u);
}

// ---------------------------------------------------------------------------
// A toy System with a known state space: a pair of counters in [0, N),
// actions increment/decrement/reset them. State count = N*N.

class CounterSystem : public System {
 public:
  explicit CounterSystem(int n, bool violate_at_corner = false)
      : n_(n), violate_at_corner_(violate_at_corner) {}

  std::size_t ActionCount() const override { return 6; }

  std::string ActionName(std::size_t action) const override {
    static const char* kNames[] = {"inc-a", "dec-a", "inc-b",
                                   "dec-b",  "reset-a", "reset-b"};
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
    violation_ = violate_at_corner_ && a_ == n_ - 1 && b_ == n_ - 1;
    return Status::Ok();
  }

  bool violation_detected() const override { return violation_; }
  std::string violation_report() const override {
    return violation_ ? "reached the forbidden corner" : "";
  }

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
    violation_ = false;
    return Status::Ok();
  }

  Status DiscardConcrete(SnapshotId id) override {
    return snapshots_.erase(id) == 1 ? Status::Ok()
                                     : Status(Errno::kENOENT);
  }

  std::uint64_t ConcreteStateBytes() const override { return 16; }

  std::size_t live_snapshots() const { return snapshots_.size(); }

 private:
  int n_;
  bool violate_at_corner_;
  int a_ = 0;
  int b_ = 0;
  bool violation_ = false;
  SnapshotId next_id_ = 1;
  std::map<SnapshotId, std::pair<int, int>> snapshots_;
};

TEST(ExplorerTest, DfsCoversTheFullStateSpace) {
  CounterSystem system(4);  // 16 reachable states
  ExplorerOptions options;
  options.mode = SearchMode::kDfs;
  options.max_operations = 100'000;
  options.max_depth = 16;
  options.seed = 3;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.violation_found);
  EXPECT_EQ(stats.unique_states, 16u);
  // All snapshots released after the search unwinds.
  EXPECT_EQ(system.live_snapshots(), 0u);
}

TEST(ExplorerTest, DfsRespectsDepthBound) {
  CounterSystem system(10);
  ExplorerOptions options;
  options.max_operations = 100'000;
  options.max_depth = 3;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  // Depth 3 from (0,0) cannot reach counters above 3.
  EXPECT_LE(stats.unique_states, 16u);
  EXPECT_LE(stats.max_depth_reached, 3u);
}

TEST(ExplorerTest, DfsFindsViolationWithTrail) {
  CounterSystem system(3, /*violate_at_corner=*/true);
  ExplorerOptions options;
  options.max_operations = 100'000;
  options.max_depth = 12;
  options.seed = 1;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  ASSERT_TRUE(stats.violation_found);
  EXPECT_EQ(stats.violation_report, "reached the forbidden corner");
  ASSERT_FALSE(stats.violation_trail.empty());

  // Replaying the trail on a fresh system reproduces the violation.
  CounterSystem replay(3, /*violate_at_corner=*/true);
  auto index_of = [&replay](const std::string& name) {
    for (std::size_t i = 0; i < replay.ActionCount(); ++i) {
      if (replay.ActionName(i) == name) return i;
    }
    ADD_FAILURE() << "unknown action " << name;
    return std::size_t{0};
  };
  for (const auto& step : stats.violation_trail) {
    ASSERT_TRUE(replay.ApplyAction(index_of(step)).ok());
  }
  EXPECT_TRUE(replay.violation_detected());
}

TEST(ExplorerTest, RandomWalkVisitsStatesAndBacktracks) {
  CounterSystem system(4);
  ExplorerOptions options;
  options.mode = SearchMode::kRandomWalk;
  options.max_operations = 2000;
  options.seed = 5;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  EXPECT_EQ(stats.operations, 2000u);
  // A frontier-backtracking walk is not exhaustive (states whose every
  // approach path is already visited stay unreached) but must cover the
  // bulk of this tiny space.
  EXPECT_GE(stats.unique_states, 12u);
  EXPECT_LE(stats.unique_states, 16u);
  EXPECT_GT(stats.backtracks, 0u);
}

TEST(ExplorerTest, BitstateModeExplores) {
  CounterSystem system(4);
  ExplorerOptions options;
  options.max_operations = 100'000;
  options.max_depth = 16;
  options.use_bitstate = true;
  options.bitstate_bits = 1 << 16;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.violation_found);
  // Bitstate can under-count (false positives) but never over-count.
  EXPECT_LE(stats.unique_states, 16u);
  EXPECT_GE(stats.unique_states, 10u);
}

TEST(ExplorerTest, BitstateModeRefusesToExportCheckpoints) {
  // Regression: bitstate mode never populates the exact visited table,
  // so exporting used to hand back a well-formed but EMPTY image — a
  // resumed run would accept it and re-count every state. It must be an
  // explicit error instead.
  CounterSystem system(4);
  ExplorerOptions options;
  options.max_operations = 100'000;
  options.use_bitstate = true;
  options.bitstate_bits = 1 << 16;
  Explorer explorer(system, options);
  explorer.Run();
  auto exported = explorer.ExportCheckpoint();
  ASSERT_FALSE(exported.ok());
  EXPECT_EQ(exported.error(), Errno::kENOTSUP);
}

TEST(ExplorerTest, InvalidResumeImageMakesRunANoOp) {
  // Regression: a rejected resume image used to be silently dropped,
  // turning "resume my interrupted search" into a fresh run that
  // re-counts everything. Now the rejection is sticky and visible.
  CounterSystem system(4);
  const Bytes garbage = {1, 2, 3};
  ExplorerOptions options;
  options.max_operations = 100'000;
  options.resume_visited = &garbage;
  Explorer explorer(system, options);
  EXPECT_FALSE(explorer.resume_status().ok());
  const ExploreStats stats = explorer.Run();
  EXPECT_EQ(stats.operations, 0u);
  EXPECT_EQ(stats.unique_states, 0u);
  EXPECT_NE(stats.violation_report.find("rejected"), std::string::npos)
      << stats.violation_report;
}

TEST(ExplorerTest, ResizeStallChargesSimTime) {
  CounterSystem system(40);  // 1600 states: forces table resizes
  SimClock clock;
  ExplorerOptions options;
  options.max_operations = 1'000'000;
  // Effectively unbounded depth: depth-bounded DFS with a global visited
  // set is incomplete near the bound, and this test needs full coverage.
  options.max_depth = 5000;
  options.clock = &clock;
  options.rehash_cost_per_entry = 1000;
  Explorer explorer(system, options);
  ExploreStats stats = explorer.Run();
  EXPECT_EQ(stats.unique_states, 1600u);
  EXPECT_GT(clock.now(), 0u);
  EXPECT_GT(explorer.visited().resize_count(), 0u);
}

TEST(ExplorerTest, ProgressSamplesAreEmitted) {
  CounterSystem system(5);
  ExplorerOptions options;
  options.mode = SearchMode::kRandomWalk;  // always runs to the op budget
  options.max_operations = 1000;
  options.max_depth = 10;
  options.progress_interval_ops = 100;
  std::vector<ProgressSample> samples;
  options.progress_callback = [&samples](const ProgressSample& sample) {
    samples.push_back(sample);
  };
  Explorer explorer(system, options);
  explorer.Run();
  ASSERT_GE(samples.size(), 9u);
  EXPECT_EQ(samples[0].operations, 100u);
  EXPECT_LE(samples[0].unique_states, samples.back().unique_states);
}

// ---------------------------------------------------------------------------
// Swarm

class CounterInstance : public SwarmInstance {
 public:
  explicit CounterInstance(int n) : system_(n) {}
  System& system() override { return system_; }
  SimClock* clock() override { return &clock_; }

 private:
  CounterSystem system_;
  SimClock clock_;
};

TEST(SwarmTest, WorkersJointlyCoverTheSpace) {
  SwarmOptions options;
  options.workers = 4;
  options.base.mode = SearchMode::kDfs;
  options.base.max_operations = 300;  // each worker alone is budget-bound
  options.base.max_depth = 10;
  options.base_seed = 11;
  Swarm swarm(options);
  SwarmResult result = swarm.Run(
      [](int) { return std::make_unique<CounterInstance>(6); });

  ASSERT_EQ(result.per_worker.size(), 4u);
  EXPECT_FALSE(result.any_violation);
  // Each worker runs until its budget or until its (depth-bounded)
  // search exhausts, whichever comes first.
  EXPECT_GT(result.total_operations, 0u);
  EXPECT_LE(result.total_operations, 4u * 300u);
  for (const auto& stats : result.per_worker) {
    EXPECT_GT(stats.operations, 0u);
  }
  // Diversified seeds: the union exceeds any single worker's coverage.
  std::uint64_t best_single = 0;
  for (const auto& stats : result.per_worker) {
    best_single = std::max(best_single, stats.unique_states);
  }
  EXPECT_GE(result.merged_unique_states, best_single);
  EXPECT_LE(result.merged_unique_states, 36u);
  EXPECT_GE(result.summed_unique_states, result.merged_unique_states);
}

TEST(SwarmTest, SequentialModeIsDeterministic) {
  auto run = []() {
    SwarmOptions options;
    options.workers = 3;
    options.base.max_operations = 200;
    options.base.max_depth = 8;
    options.run_parallel = false;
    Swarm swarm(options);
    return swarm.Run(
        [](int) { return std::make_unique<CounterInstance>(5); });
  };
  SwarmResult r1 = run();
  SwarmResult r2 = run();
  EXPECT_EQ(r1.merged_unique_states, r2.merged_unique_states);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r1.per_worker[i].unique_states,
              r2.per_worker[i].unique_states);
  }
}

TEST(SwarmTest, ViolationSurfacesFromAnyWorker) {
  SwarmOptions options;
  options.workers = 3;
  options.base.max_operations = 100'000;
  options.base.max_depth = 12;
  Swarm swarm(options);
  SwarmResult result = swarm.Run([](int) {
    auto instance = std::make_unique<CounterInstance>(3);
    return instance;
  });
  (void)result;  // clean system: no violation
  EXPECT_FALSE(result.any_violation);

  // Now with the corner violation armed.
  class BadInstance : public SwarmInstance {
   public:
    BadInstance() : system_(3, true) {}
    System& system() override { return system_; }
    SimClock* clock() override { return &clock_; }

   private:
    CounterSystem system_;
    SimClock clock_;
  };
  SwarmResult bad = swarm.Run(
      [](int) { return std::make_unique<BadInstance>(); });
  EXPECT_TRUE(bad.any_violation);
  EXPECT_EQ(bad.first_violation_report, "reached the forbidden corner");
  // The reported violation is the first-in-time one (the worker that
  // raised the cancel flag), and its per-worker record agrees.
  ASSERT_GE(bad.first_violation_worker, 0);
  EXPECT_EQ(bad.per_worker[bad.first_violation_worker].violation_report,
            bad.first_violation_report);
}

TEST(SwarmTest, AllViolationReportsAreKept) {
  // Every worker violates (sequentially, with cancellation off, so all
  // of them actually run): no report may be dropped, and the "first"
  // one is the first in time, not merely the lowest index.
  SwarmOptions options;
  options.workers = 3;
  options.base.max_operations = 100'000;
  options.base.max_depth = 12;
  options.run_parallel = false;
  options.cancel_on_violation = false;
  Swarm swarm(options);
  SwarmResult result = swarm.Run([](int) {
    class BadInstance : public SwarmInstance {
     public:
      BadInstance() : system_(3, true) {}
      System& system() override { return system_; }
      SimClock* clock() override { return &clock_; }

     private:
      CounterSystem system_;
      SimClock clock_;
    };
    return std::make_unique<BadInstance>();
  });
  ASSERT_TRUE(result.any_violation);
  for (const auto& stats : result.per_worker) {
    EXPECT_TRUE(stats.violation_found);
    EXPECT_EQ(stats.violation_report, "reached the forbidden corner");
  }
  EXPECT_EQ(result.first_violation_worker, 0);  // sequential: 0 runs first
}

TEST(SwarmTest, CancelOnViolationStopsRemainingSequentialWorkers) {
  SwarmOptions options;
  options.workers = 3;
  options.base.max_operations = 100'000;
  options.base.max_depth = 12;
  options.run_parallel = false;
  Swarm swarm(options);
  SwarmResult result = swarm.Run([](int) {
    class BadInstance : public SwarmInstance {
     public:
      BadInstance() : system_(3, true) {}
      System& system() override { return system_; }
      SimClock* clock() override { return &clock_; }

     private:
      CounterSystem system_;
      SimClock clock_;
    };
    return std::make_unique<BadInstance>();
  });
  ASSERT_TRUE(result.any_violation);
  EXPECT_EQ(result.first_violation_worker, 0);
  EXPECT_TRUE(result.cancelled);
  // Workers 1 and 2 never ran.
  EXPECT_EQ(result.per_worker[1].operations, 0u);
  EXPECT_EQ(result.per_worker[2].operations, 0u);
}

TEST(SwarmTest, MergedProgressAggregatesAcrossWorkers) {
  SwarmOptions options;
  options.workers = 3;
  options.base.mode = SearchMode::kRandomWalk;
  options.base.max_operations = 1000;
  options.base.progress_interval_ops = 100;
  options.run_parallel = false;
  Swarm swarm(options);
  SwarmResult result = swarm.Run(
      [](int) { return std::make_unique<CounterInstance>(6); });
  ASSERT_GE(result.merged_progress.size(), 27u);  // 3 workers x >=9 samples
  const ProgressSample& last = result.merged_progress.back();
  EXPECT_EQ(last.operations, 3000u);  // all workers' ops, summed
  EXPECT_GE(last.unique_states, result.per_worker[0].unique_states);
}

}  // namespace
}  // namespace mcfs::mc
