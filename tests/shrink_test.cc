// TraceMinimizer and Mcfs::Replay: ddmin deletion, parameter
// simplification, budget and failure behavior against real (in-process)
// VeriFS1 pairs, and remount-per-op replays that must follow the engine.
#include <gtest/gtest.h>

#include "mcfs/shrink.h"

namespace mcfs::core {
namespace {

// Same-kind ioctl pair, direct in-process calls (no FUSE): fast enough
// for the hundreds of fresh pairs a shrink builds. Outcome checks only,
// so a bug surfaces where an operation returns the wrong thing.
McfsConfig PairConfig(verifs::VerifsBugs bugs) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_a.fuse_transport = false;
  config.fs_b = config.fs_a;
  config.fs_b.bugs = bugs;
  config.engine.compare_states = false;
  return config;
}

// bench_bug_detection's pairing: ext4f remounting every operation
// against VeriFS1 under ioctl snapshots, Tiny pool.
McfsConfig Ext4VsVerifs1Config(verifs::VerifsBugs bugs) {
  McfsConfig config;
  config.fs_a.kind = FsKind::kExt4;
  config.fs_a.strategy = StateStrategy::kRemountPerOp;
  config.fs_b.kind = FsKind::kVerifs1;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.fs_b.bugs = bugs;
  config.engine.pool = ParameterPool::Tiny();
  return config;
}

Trace MakeTrace(const std::vector<Operation>& ops) {
  Trace trace;
  OpOutcome none;
  for (const Operation& op : ops) trace.Append(op, none, none, false);
  return trace;
}

Operation Op(OpKind kind, const std::string& path, std::uint64_t size = 0) {
  Operation op;
  op.kind = kind;
  op.path = path;
  op.size = size;
  return op;
}

// create f0, grow it, shrink-truncate (the bug: silently ignored), stat
// (where the sizes visibly differ) — buried in unrelated noise.
std::vector<Operation> NoisyShrinkTrigger() {
  return {
      Op(OpKind::kMkdir, "/d0"),
      Op(OpKind::kCreateFile, "/f1"),
      Op(OpKind::kCreateFile, "/f0"),
      Op(OpKind::kStat, "/f1"),
      Op(OpKind::kWriteFile, "/f0", 64),
      Op(OpKind::kGetDents, "/"),
      Op(OpKind::kMkdir, "/d0/sub"),
      Op(OpKind::kTruncate, "/f0", 1),
      Op(OpKind::kStat, "/d0"),
      Op(OpKind::kStat, "/f0"),  // sizes diverge here
      Op(OpKind::kGetDents, "/d0"),
  };
}

TEST(ShrinkTest, DdminFindsTheMinimalShrinkTruncateReproducer) {
  verifs::VerifsBugs bugs;
  bugs.truncate_shrink_noop = true;
  TraceMinimizer minimizer(PairConfig(bugs), {});
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(NoisyShrinkTrigger()),
                                      &report);
  ASSERT_TRUE(minimized.ok());
  EXPECT_TRUE(report.input_reproduced);
  EXPECT_TRUE(report.replay_confirmed);
  EXPECT_TRUE(report.one_minimal);
  EXPECT_EQ(report.original_ops, 11u);
  // create + write + truncate + stat: nothing else is load-bearing.
  EXPECT_EQ(report.final_ops, 4u);
  EXPECT_EQ(minimized.value().size(), 4u);
  EXPECT_GT(report.replays, 1u);
}

TEST(ShrinkTest, ParameterPassSimplifiesSurvivingSizes) {
  verifs::VerifsBugs bugs;
  bugs.truncate_shrink_noop = true;
  TraceMinimizer minimizer(PairConfig(bugs), {});
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(NoisyShrinkTrigger()),
                                      &report);
  ASSERT_TRUE(minimized.ok());
  EXPECT_GT(report.param_simplifications, 0u);
  for (const auto& record : minimized.value().records()) {
    if (record.op.kind == OpKind::kWriteFile) {
      // 64 bytes was never necessary; the pass halves it down.
      EXPECT_LT(record.op.size, 64u);
      EXPECT_GT(record.op.size, 0u);  // size 0 kills the reproduction
    }
  }
}

TEST(ShrinkTest, NonReproducingInputIsEinval) {
  // Same trace, no bug: nothing to reproduce.
  TraceMinimizer minimizer(PairConfig({}), {});
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(NoisyShrinkTrigger()),
                                      &report);
  ASSERT_FALSE(minimized.ok());
  EXPECT_EQ(minimized.error(), Errno::kEINVAL);
  EXPECT_FALSE(report.input_reproduced);
}

TEST(ShrinkTest, FactoryFailureIsEio) {
  // Mcfs::Create rejects the config: ext2f has no checkpoint ioctl.
  McfsConfig config = PairConfig({});
  config.fs_a.kind = FsKind::kExt2;
  TraceMinimizer minimizer(config, {});
  auto minimized = minimizer.Minimize(MakeTrace(NoisyShrinkTrigger()));
  ASSERT_FALSE(minimized.ok());
  EXPECT_EQ(minimized.error(), Errno::kEIO);
}

TEST(ShrinkTest, ExhaustedBudgetStillReplayConfirmsTheResult) {
  verifs::VerifsBugs bugs;
  bugs.truncate_shrink_noop = true;
  ShrinkOptions options;
  options.max_replays = 2;  // input check + barely one candidate
  TraceMinimizer minimizer(PairConfig(bugs), options);
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(NoisyShrinkTrigger()),
                                      &report);
  ASSERT_TRUE(minimized.ok());
  // The budget died mid-ddmin, so no 1-minimality certificate — but the
  // returned trace must still have been replay-confirmed.
  EXPECT_FALSE(report.one_minimal);
  EXPECT_TRUE(report.replay_confirmed);
}

TEST(ShrinkTest, RestoreWithoutMatchingSaveDoesNotReproduce) {
  // A lone kRestore record (its checkpoint was never taken) must fail
  // the replay — this is how ddmin candidates that delete a checkpoint
  // but keep its restore get rejected.
  verifs::VerifsBugs bugs;
  bugs.truncate_shrink_noop = true;
  std::vector<Operation> ops = NoisyShrinkTrigger();
  Operation restore;
  restore.kind = OpKind::kRestore;
  restore.offset = 42;  // snapshot key nobody saved
  ops.insert(ops.begin(), restore);
  TraceMinimizer minimizer(PairConfig(bugs), {});
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(ops), &report);
  ASSERT_FALSE(minimized.ok());
  EXPECT_EQ(minimized.error(), Errno::kEINVAL);
  EXPECT_FALSE(report.input_reproduced);
}

TEST(ShrinkTest, CheckpointRestorePairSurvivesWhenLoadBearing) {
  // Save a state, grow the file, roll back, then hit the restore bug:
  // VeriFS1's restore_skips_one_inode drops an inode per rollback, so
  // the trace reproduces ONLY if the checkpoint/restore pair survives
  // the shrink.
  verifs::VerifsBugs bugs;
  bugs.restore_skips_one_inode = true;
  Operation save;
  save.kind = OpKind::kCheckpoint;
  save.offset = 1;
  Operation restore;
  restore.kind = OpKind::kRestore;
  restore.offset = 1;
  std::vector<Operation> ops = {
      Op(OpKind::kCreateFile, "/f0"),
      Op(OpKind::kCreateFile, "/f1"),
      save,
      Op(OpKind::kMkdir, "/d0"),
      restore,
      Op(OpKind::kGetDents, "/"),  // one side lost an inode
  };
  TraceMinimizer minimizer(PairConfig(bugs), {});
  ShrinkReport report;
  auto minimized = minimizer.Minimize(MakeTrace(ops), &report);
  ASSERT_TRUE(minimized.ok());
  EXPECT_TRUE(report.replay_confirmed);
  bool has_restore = false;
  for (const auto& record : minimized.value().records()) {
    has_restore |= record.op.kind == OpKind::kRestore;
  }
  EXPECT_TRUE(has_restore);
}

TEST(ShrinkTest, RemountPairReplaysItsOwnCleanHistoryClean) {
  // A remount-per-op member is unmounted between operations; a replay
  // that skips the engine's BeginOp/EndOp runs operations on it
  // unmounted and "reproduces" a clean run's history at record 1.
  McfsConfig config = Ext4VsVerifs1Config({});
  config.explore.mode = mc::SearchMode::kDfs;
  config.explore.max_depth = 4;
  config.explore.max_operations = 300;
  config.explore.seed = 1;
  auto run = Mcfs::Create(config);
  ASSERT_TRUE(run.ok());
  const McfsReport report = run.value()->Run();
  ASSERT_FALSE(report.stats.violation_found) << report.stats.violation_report;
  const Trace& history = run.value()->engine().trace();
  ASSERT_LT(history.size(), config.engine.trace_cap);  // nothing trimmed

  auto fresh = Mcfs::Create(config);
  ASSERT_TRUE(fresh.ok());
  const ReplayResult replay = fresh.value()->Replay(history);
  EXPECT_FALSE(replay.reproduced)
      << "record " << replay.violation_index << ": " << replay.detail;
  // The replay walked the whole history through the engine and saw
  // what the search saw, errnos and snapshot ids included.
  EXPECT_EQ(fresh.value()->engine().trace().records(), history.records());
}

TEST(ShrinkTest, RemountPairReproducerNeedsTheBug) {
  // bench_bug_detection's bug #2 row (VeriFS1 skips cache invalidation
  // on restore, vs ext4f): the shrunk reproducer must reproduce with the
  // bug and replay clean without it.
  verifs::VerifsBugs bugs;
  bugs.skip_cache_invalidation_on_restore = true;
  McfsConfig config = Ext4VsVerifs1Config(bugs);
  config.engine.trace_cap = 200'000;
  config.explore.max_operations = 50'000;
  config.explore.max_depth = 8;
  std::unique_ptr<Mcfs> detecting;
  McfsReport report;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    config.explore.seed = seed;
    auto mcfs = Mcfs::Create(config);
    ASSERT_TRUE(mcfs.ok());
    report = mcfs.value()->Run();
    if (report.stats.violation_found) {
      detecting = std::move(mcfs).value();
      break;
    }
  }
  ASSERT_NE(detecting, nullptr);

  ShrinkOptions options;
  options.max_replays = 4'000;
  TraceMinimizer minimizer(config, options);
  const SyscallEngine& engine = detecting->engine();
  auto trail = TraceFromTrail(engine, report.stats.violation_trail);
  ASSERT_TRUE(trail.ok());
  ShrinkReport shrink;
  auto minimized = minimizer.Minimize(trail.value(), &shrink);
  if (!minimized.ok()) minimized = minimizer.Minimize(engine.trace(), &shrink);
  ASSERT_TRUE(minimized.ok());
  EXPECT_TRUE(shrink.replay_confirmed);
  EXPECT_TRUE(shrink.one_minimal);

  config.fs_b.bugs = verifs::VerifsBugs::None();
  auto fixed = Mcfs::Create(config);
  ASSERT_TRUE(fixed.ok());
  const ReplayResult replay = fixed.value()->Replay(minimized.value());
  EXPECT_FALSE(replay.reproduced)
      << minimized.value().ToText() << "record " << replay.violation_index
      << ": " << replay.detail;
}

}  // namespace
}  // namespace mcfs::core
