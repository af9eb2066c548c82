// Mutation corpus sanity + the self-verification campaign on a fast
// subset of mutants (the full corpus runs via examples/mutation_campaign
// or scripts/mutation_campaign.sh).
#include <gtest/gtest.h>

#include <cstring>

#include "mcfs/harness.h"

namespace mcfs::core {
namespace {

TEST(MutationCorpusTest, CorpusIsRegisteredAndWellFormed) {
  const auto& corpus = verifs::MutationCorpus();
  ASSERT_GE(corpus.size(), 19u);
  const verifs::VerifsBugs clean{};
  std::size_t historical = 0;
  std::size_t evaders = 0;
  for (const auto& mutant : corpus) {
    EXPECT_FALSE(mutant.name.empty());
    EXPECT_FALSE(mutant.hint.empty());
    historical += mutant.historical ? 1 : 0;
    evaders += mutant.expect_detected ? 0 : 1;
    // Names are unique.
    std::size_t count = 0;
    for (const auto& other : corpus) count += other.name == mutant.name;
    EXPECT_EQ(count, 1u) << mutant.name;
    // Every mutant sets at least one bug flag (the all-clean VerifsBugs
    // serializes differently from any mutant's).
    EXPECT_NE(std::memcmp(&mutant.bugs, &clean, sizeof(clean)), 0)
        << mutant.name;
  }
  EXPECT_EQ(historical, 4u);  // the paper's §6 bugs
  EXPECT_GE(evaders, 1u);     // readdir_reverse_order survives by design
  EXPECT_NE(verifs::FindMutant("stat_size_off_by_one"), nullptr);
  EXPECT_EQ(verifs::FindMutant("no_such_mutant"), nullptr);
  const verifs::Mutant* evader = verifs::FindMutant("readdir_reverse_order");
  ASSERT_NE(evader, nullptr);
  EXPECT_FALSE(evader->expect_detected);
}

TEST(MutationCampaignTest, FastMutantsAreKilledAndMinimized) {
  MutationCampaignOptions options;
  options.fuse_transport = false;  // in-process: fast
  options.max_operations = 20'000;
  options.seeds = {1, 2, 3};
  options.only = {"stat_size_off_by_one", "chmod_ignores_mode",
                  "restore_skips_one_inode", "truncate_no_zero_on_expand"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 4u);
  EXPECT_EQ(report.detections, 4u);
  EXPECT_DOUBLE_EQ(report.kill_rate, 1.0);
  EXPECT_TRUE(report.missed.empty());
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.relative.detected) << outcome.name;
    EXPECT_TRUE(outcome.relative.replay_confirmed) << outcome.name;
    EXPECT_LE(outcome.relative.minimized_ops, 10u) << outcome.name;
    EXPECT_GT(outcome.relative.raw_trace_ops, 0u) << outcome.name;
    EXPECT_FALSE(outcome.relative.minimized_trace.empty()) << outcome.name;
  }
}

TEST(MutationCampaignTest, FailedMkdirParentMutantIsCaughtIncrementally) {
  // Regression for the failed-mutation dirty-set guard: this mutant
  // bumps the PARENT directory's gid before reporting EEXIST, i.e.
  // one lexical hop away from the op's named target. Detection with the
  // incremental cache enabled depends on the failure branch re-hashing
  // parents too — before that fix the stale parent hash made the buggy
  // twin's digest match the clean one and the violation vanished.
  const verifs::Mutant* mutant =
      verifs::FindMutant("mkdir_eexist_chowns_parent");
  ASSERT_NE(mutant, nullptr);
  EXPECT_TRUE(mutant->expect_detected);

  // A namespace-only pool over a nested dir pair: the space closes well
  // inside the budget, so DFS is guaranteed to expand the state where
  // /d0/d2 already exists and re-run its mkdir (the EEXIST branch).
  // With the full Default pool, reaching that state depends on the
  // shuffled order of an 82-way tree — detection by luck, not by test.
  ParameterPool pool;
  pool.file_paths = {};
  pool.dir_paths = {"/d0", "/d0/d2"};
  pool.include_data_ops = false;
  pool.include_metadata_ops = false;
  pool.include_link_ops = false;

  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_a.fuse_transport = false;
  config.fs_b = config.fs_a;
  config.fs_b.bugs = mutant->bugs;
  config.engine.pool = pool;
  config.engine.abstraction.incremental = true;  // the cache under test
  config.explore.mode = mc::SearchMode::kDfs;
  config.explore.max_operations = 40'000;
  config.explore.max_depth = 6;
  config.explore.seed = 1;
  auto mcfs = Mcfs::Create(config);
  ASSERT_TRUE(mcfs.ok());
  McfsReport run = mcfs.value()->Run();
  EXPECT_TRUE(run.stats.violation_found)
      << "incremental cache missed the parent mutation";

  // The campaign proper (full-recompute oracle) kills it as well.
  MutationCampaignOptions options;
  options.fuse_transport = false;
  options.pool = pool;
  options.max_operations = 40'000;
  options.seeds = {1, 2, 3};
  options.only = {"mkdir_eexist_chowns_parent"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].relative.detected);
  EXPECT_TRUE(report.outcomes[0].relative.replay_confirmed);
}

TEST(MutationCampaignTest, RestoreBugIsCaughtThroughTheFuseTransport) {
  // Historical bug #2 needs the full stack: FUSE kernel caches + an
  // ioctl restore that (buggily) skips invalidating them.
  MutationCampaignOptions options;
  options.fuse_transport = true;
  options.max_operations = 20'000;
  options.seeds = {1, 2, 3};
  options.only = {"skip_cache_invalidation_on_restore"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].relative.detected);
  EXPECT_TRUE(report.outcomes[0].relative.replay_confirmed);
  EXPECT_LE(report.outcomes[0].relative.minimized_ops, 10u);
}

TEST(MutationCampaignTest, SortedDirentsEvaderSurvivesByDesign) {
  // Uses the campaign's default FUSE transport: without FUSE the mutant
  // is incidentally caught through a restore/dcache side channel, but in
  // the documented configuration the sorted-dirent checker masks it.
  MutationCampaignOptions options;
  options.max_operations = 3'000;
  options.seeds = {1};
  options.only = {"readdir_reverse_order"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_FALSE(report.outcomes[0].relative.detected);
  // Not a miss: the corpus documents it as an accepted blind spot.
  EXPECT_TRUE(report.missed.empty());
  EXPECT_EQ(report.expected_detections, 0u);
}

TEST(MutationCampaignTest, ReproducersPrintWhatTheReplaySaw) {
  // A minimized trace is the confirming replay's own record: real errnos
  // (a trail seed carries none) and the violation marker on the record
  // that convicted, crash verdicts included.
  MutationCampaignOptions options;
  options.fuse_transport = false;
  options.spec_axis = false;
  options.pool = ParameterPool::Tiny();
  options.max_operations = 4'000;
  options.max_depth = 3;
  options.seeds = {1, 2, 3};
  options.only = {"unlink_enoent_as_eperm", "jffs2_skip_log_replay",
                  "ext4_ack_before_journal_commit"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 3u);
  for (const MutantOutcome& o : report.outcomes) {
    ASSERT_TRUE(o.relative.replay_confirmed) << o.name;
    const std::string& text = o.relative.minimized_trace;
    ASSERT_FALSE(text.empty()) << o.name;
    if (o.crash) {
      EXPECT_EQ(o.killed_by, "crash") << o.name;
      // The last record is the operation the crash check convicted.
      const std::size_t nl = text.rfind('\n', text.size() - 2);
      const std::string last =
          text.substr(nl == std::string::npos ? 0 : nl + 1);
      EXPECT_NE(last.find("[VIOLATION]"), std::string::npos)
          << o.name << ":\n" << text;
    } else {
      EXPECT_NE(text.find("A:ENOENT B:EPERM  [VIOLATION]"),
                std::string::npos)
          << o.name << ":\n" << text;
    }
  }
}

TEST(MutationCampaignTest, JsonReportIsWellFormedAndEscaped) {
  MutationCampaignReport report;
  MutantOutcome outcome;
  outcome.name = "fake_mutant";
  outcome.hint = "line1\nline2 \"quoted\"";
  outcome.relative.detected = true;
  outcome.relative.minimized_trace = "0: mkdir(/d)\n";
  report.outcomes.push_back(outcome);
  report.expected_detections = 1;
  report.detections = 1;
  report.kill_rate = 1.0;
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"name\": \"fake_mutant\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"kill_rate\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"missed\": []"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

}  // namespace
}  // namespace mcfs::core
