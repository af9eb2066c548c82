// The crash-exploration mode end to end: the differential proof (zero
// violations across every enumerated crash state of a clean pair, and of
// a clean 3-member panel, on a closed workload) and the mutation proof
// (each crash mutant is killed by the persistence oracle with a
// replay-verified, minimized reproducer naming the crash point).
#include <gtest/gtest.h>

#include "mc/explorer.h"
#include "mcfs/harness.h"

namespace mcfs::core {
namespace {

McfsConfig CrashPairConfig(FsKind a, FsKind b) {
  McfsConfig config;
  config.fs_a.kind = a;
  config.fs_a.strategy = StateStrategy::kVfsApi;
  config.fs_a.fuse_transport = false;
  // ext2f's cache is otherwise unbounded: with capacity 0 every op's
  // blocks reach the device, so fsync barriers bound the in-flight
  // journal and each op yields only a handful of crash states.
  config.fs_a.block_cache_capacity = 0;
  config.fs_b = config.fs_a;
  config.fs_b.kind = b;
  config.engine.pool = ParameterPool::Tiny();
  config.engine.pool.include_fsync_ops = true;
  config.engine.abstraction.incremental = false;
  config.engine.crash.enabled = true;  // Mcfs::Create flips the devices
  config.explore.mode = mc::SearchMode::kDfs;
  config.explore.crash_mode = mc::CrashMode::kEveryOp;
  config.explore.por = false;
  config.explore.max_depth = 3;
  config.explore.max_operations = 4'000;
  config.explore.seed = 1;
  return config;
}

TEST(CrashExploreTest, CleanExt2VsJffs2HasNoCrashViolations) {
  auto mcfs = Mcfs::Create(CrashPairConfig(FsKind::kExt2, FsKind::kJffs2));
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.stats.violation_report;
  // The mode actually ran: every applied op was crash-checked and each
  // check enumerated at least the empty and full crash states.
  EXPECT_GT(report.counters.crash_checks, 0u);
  EXPECT_GT(report.counters.crash_states_checked,
            report.counters.crash_checks);
}

TEST(CrashExploreTest, CleanExt4PairHasNoCrashViolations) {
  auto mcfs = Mcfs::Create(CrashPairConfig(FsKind::kExt4, FsKind::kExt4));
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.stats.violation_report;
  EXPECT_GT(report.counters.crash_states_checked, 0u);
}

TEST(CrashExploreTest, CleanKernelPanelHasNoCrashViolations) {
  // A panel gets the pair's crash mode: every member with a recording
  // device is crash-checked after every op of a depth-2 closed ball.
  const McfsConfig pair = CrashPairConfig(FsKind::kExt2, FsKind::kExt2);
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> panel;
  for (const FsKind kind : {FsKind::kExt2, FsKind::kExt4, FsKind::kJffs2}) {
    FsUnderTestConfig config = pair.fs_a;
    config.kind = kind;
    config.crashable_device = true;
    auto fut = FsUnderTest::Create(config, nullptr);
    ASSERT_TRUE(fut.ok());
    panel.push_back(fut.value().get());
    owned.push_back(std::move(fut).value());
  }
  std::vector<vfs::Vfs*> vfses;
  for (FsUnderTest* fut : panel) vfses.push_back(&fut->vfs());
  ASSERT_TRUE(EqualizeFreeSpace(vfses).ok());

  EngineOptions options = pair.engine;
  options.crash.states.barrier_model = storage::BarrierModel::kOrdered;
  SyscallEngine engine(panel, options);
  mc::ExplorerOptions explore = pair.explore;
  explore.max_depth = 2;
  explore.max_operations = 100'000;
  mc::Explorer explorer(engine, explore);
  const mc::ExploreStats stats = explorer.Run();
  EXPECT_FALSE(stats.violation_found) << stats.violation_report;
  EXPECT_LT(stats.operations, explore.max_operations);  // the ball closed
  EXPECT_GT(engine.counters().crash_checks, 0u);
  EXPECT_GT(engine.counters().crash_states_checked,
            engine.counters().crash_checks);
}

TEST(CrashExploreTest, CrashModeOffChecksNothing) {
  McfsConfig config = CrashPairConfig(FsKind::kExt2, FsKind::kExt2);
  config.explore.crash_mode = mc::CrashMode::kOff;
  config.engine.crash.enabled = false;
  config.explore.max_operations = 500;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found);
  EXPECT_EQ(report.counters.crash_checks, 0u);
  EXPECT_EQ(report.counters.crash_states_checked, 0u);
}

TEST(CrashExploreTest, CrashMutantsAreKilledByTheOracleWithSmallRepros) {
  MutationCampaignOptions options;
  options.pool = ParameterPool::Tiny();
  options.max_operations = 4'000;
  options.max_depth = 3;
  options.seeds = {1, 2, 3};
  options.only = {"jffs2_skip_log_replay", "ext4_ack_before_journal_commit"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.detections, 2u);
  EXPECT_TRUE(report.missed.empty());
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.crash) << outcome.name;
    EXPECT_TRUE(outcome.detected) << outcome.name;
    // Live differential checking cannot see these defects — only the
    // persistence oracle can, and its reports carry the crash point.
    EXPECT_EQ(outcome.killed_by, "crash") << outcome.name;
    EXPECT_NE(outcome.violation.find("crash:"), std::string::npos)
        << outcome.name << ": " << outcome.violation;
    EXPECT_TRUE(outcome.replay_confirmed) << outcome.name;
    EXPECT_LE(outcome.minimized_ops, 8u) << outcome.name;
    EXPECT_FALSE(outcome.minimized_trace.empty()) << outcome.name;
  }
  // The JSON artifact carries the crash axis for scripts/crash_campaign.sh.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"killed_by\": \"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"crash\": true"), std::string::npos);
}

TEST(CrashExploreTest, CrashMutantsSurviveLiveOnlyChecking) {
  // The same mutant pairing with crash mode forced off finds nothing:
  // the defect is invisible to live differential checking, which is
  // what makes the crash axis a real addition to the campaign.
  const verifs::Mutant* mutant = verifs::FindMutant("jffs2_skip_log_replay");
  ASSERT_NE(mutant, nullptr);
  EXPECT_TRUE(mutant->crash);
  MutationCampaignOptions options;
  options.pool = ParameterPool::Tiny();
  options.max_operations = 2'000;
  options.max_depth = 3;
  McfsConfig config = MutantCampaignConfig(*mutant, options, 1);
  config.explore.crash_mode = mc::CrashMode::kOff;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport report = mcfs.value()->Run();
  EXPECT_FALSE(report.stats.violation_found) << report.stats.violation_report;
}

}  // namespace
}  // namespace mcfs::core
