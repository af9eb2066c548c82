// Syscall-engine tests: action-set construction (pools x feature
// intersection), meta-operation execution, the engine as a mc::System
// (save/restore/abstract-hash contract), and trace record/replay.
#include <gtest/gtest.h>

#include "mcfs/equalize.h"
#include "mcfs/harness.h"
#include "mcfs/syscall_engine.h"

namespace mcfs::core {
namespace {

struct EnginePair {
  std::unique_ptr<FsUnderTest> a;
  std::unique_ptr<FsUnderTest> b;
  std::unique_ptr<SyscallEngine> engine;
};

EnginePair MakePair(FsKind ka, FsKind kb, EngineOptions options = {}) {
  EnginePair pair;
  FsUnderTestConfig ca;
  ca.kind = ka;
  ca.strategy = (ka == FsKind::kVerifs1 || ka == FsKind::kVerifs2)
                    ? StateStrategy::kIoctl
                    : StateStrategy::kRemountPerOp;
  FsUnderTestConfig cb;
  cb.kind = kb;
  cb.strategy = (kb == FsKind::kVerifs1 || kb == FsKind::kVerifs2)
                    ? StateStrategy::kIoctl
                    : StateStrategy::kRemountPerOp;
  auto a = FsUnderTest::Create(ca, nullptr);
  auto b = FsUnderTest::Create(cb, nullptr);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  pair.a = std::move(a).value();
  pair.b = std::move(b).value();
  pair.engine = std::make_unique<SyscallEngine>(
      std::vector<FsUnderTest*>{pair.a.get(), pair.b.get()}, options);
  return pair;
}

std::size_t FindAction(const SyscallEngine& engine,
                       const std::string& prefix) {
  for (std::size_t i = 0; i < engine.ActionCount(); ++i) {
    if (engine.ActionName(i).rfind(prefix, 0) == 0) return i;
  }
  ADD_FAILURE() << "no action with prefix " << prefix;
  return 0;
}

TEST(EngineTest, ActionSetRespectsFeatureIntersection) {
  // VeriFS1 lacks rename/link/symlink/access/xattr; pairing it with
  // VeriFS2 must drop those ops from the pool.
  EnginePair limited = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  for (std::size_t i = 0; i < limited.engine->ActionCount(); ++i) {
    const std::string name = limited.engine->ActionName(i);
    EXPECT_EQ(name.find("rename"), std::string::npos) << name;
    EXPECT_EQ(name.find("symlink"), std::string::npos) << name;
    EXPECT_EQ(name.find("setxattr"), std::string::npos) << name;
  }

  EnginePair full = MakePair(FsKind::kVerifs2, FsKind::kVerifs2);
  EXPECT_GT(full.engine->ActionCount(), limited.engine->ActionCount());
  bool has_rename = false;
  for (std::size_t i = 0; i < full.engine->ActionCount(); ++i) {
    has_rename |= full.engine->ActionName(i).find("rename(") !=
                  std::string::npos;
  }
  EXPECT_TRUE(has_rename);
}

TEST(EngineTest, ExceptionListIncludesSpecialAndFillPaths) {
  EnginePair pair = MakePair(FsKind::kExt4, FsKind::kExt2);
  const auto& exceptions = pair.engine->options().abstraction.exception_list;
  EXPECT_NE(std::find(exceptions.begin(), exceptions.end(), "/lost+found"),
            exceptions.end());
  EXPECT_NE(std::find(exceptions.begin(), exceptions.end(), kFillFilePath),
            exceptions.end());
}

TEST(EngineTest, CleanActionsProduceNoViolation) {
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  const std::size_t create = FindAction(*pair.engine, "create_file(/f0");
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  EXPECT_FALSE(pair.engine->violation_detected());
  EXPECT_EQ(pair.engine->counters().ops_executed, 1u);
  // Re-creating: both sides EEXIST, still no discrepancy.
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  EXPECT_FALSE(pair.engine->violation_detected());
}

TEST(EngineTest, AbstractHashChangesWithStateAndNotWithNoise) {
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  const Md5Digest initial = pair.engine->AbstractHash();
  EXPECT_EQ(pair.engine->AbstractHash(), initial);  // stable

  const std::size_t mkdir_op = FindAction(*pair.engine, "mkdir(/d0");
  ASSERT_TRUE(pair.engine->ApplyAction(mkdir_op).ok());
  const Md5Digest after_mkdir = pair.engine->AbstractHash();
  EXPECT_NE(after_mkdir, initial);

  // A failing op (mkdir again: EEXIST) leaves the state hash unchanged.
  ASSERT_TRUE(pair.engine->ApplyAction(mkdir_op).ok());
  EXPECT_EQ(pair.engine->AbstractHash(), after_mkdir);

  // getdents is pure noise (atime): hash unchanged.
  const std::size_t getdents = FindAction(*pair.engine, "getdents(/)");
  ASSERT_TRUE(pair.engine->ApplyAction(getdents).ok());
  EXPECT_EQ(pair.engine->AbstractHash(), after_mkdir);
}

TEST(EngineTest, SaveRestoreContractAcrossStrategies) {
  for (auto [ka, kb] : {std::pair{FsKind::kVerifs1, FsKind::kVerifs2},
                        std::pair{FsKind::kExt2, FsKind::kExt4}}) {
    EnginePair pair = MakePair(ka, kb);
    const Md5Digest initial = pair.engine->AbstractHash();
    auto snap = pair.engine->SaveConcrete();
    ASSERT_TRUE(snap.ok());

    const std::size_t create = FindAction(*pair.engine, "create_file(/f0");
    ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
    EXPECT_NE(pair.engine->AbstractHash(), initial);

    // Non-consuming restore: twice in a row must work.
    ASSERT_TRUE(pair.engine->RestoreConcrete(snap.value()).ok());
    EXPECT_EQ(pair.engine->AbstractHash(), initial);
    ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
    ASSERT_TRUE(pair.engine->RestoreConcrete(snap.value()).ok());
    EXPECT_EQ(pair.engine->AbstractHash(), initial);

    ASSERT_TRUE(pair.engine->DiscardConcrete(snap.value()).ok());
    EXPECT_FALSE(pair.engine->RestoreConcrete(snap.value()).ok());
  }
}

TEST(EngineTest, DiscardReachesEveryMemberAndReturnsTheFirstError) {
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  auto snap = pair.engine->SaveConcrete();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(pair.engine->counters().snapshots_live, 2u);
  // Member 0 loses its snapshot behind the engine's back, so its discard
  // fails; member 1's must still happen, and the accounting must see it.
  ASSERT_TRUE(pair.a->DiscardState(snap.value()).ok());
  EXPECT_EQ(pair.engine->DiscardConcrete(snap.value()).error(),
            Errno::kENOENT);
  EXPECT_EQ(pair.b->StateStats().count, 0u);
  EXPECT_EQ(pair.engine->counters().snapshots_live, 0u);
}

TEST(EngineTest, ConcreteStateBytesArePositive) {
  EnginePair pair = MakePair(FsKind::kExt2, FsKind::kExt4);
  auto snap = pair.engine->SaveConcrete();
  ASSERT_TRUE(snap.ok());
  // Two 256 KB devices.
  EXPECT_GE(pair.engine->ConcreteStateBytes(), 2u * 256 * 1024);
  ASSERT_TRUE(pair.engine->DiscardConcrete(snap.value()).ok());
}

// Device snapshots share blocks on the host, but the memory model still
// charges a full device image per member per state (the paper's 16 MB
// XFS minimum is what makes the Ext4-vs-XFS pair swap).
TEST(EngineTest, ConcreteStateBytesCountWholeDeviceImages) {
  EnginePair pair = MakePair(FsKind::kExt4, FsKind::kXfs);
  auto snap = pair.engine->SaveConcrete();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(pair.engine->ConcreteStateBytes(),
            256u * 1024 + 16u * 1024 * 1024);
  const std::size_t create = FindAction(*pair.engine, "create_file(/f0");
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  auto second = pair.engine->SaveConcrete();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pair.engine->ConcreteStateBytes(),
            256u * 1024 + 16u * 1024 * 1024);
  ASSERT_TRUE(pair.engine->DiscardConcrete(second.value()).ok());
  ASSERT_TRUE(pair.engine->DiscardConcrete(snap.value()).ok());
}

TEST(EngineTest, TraceRecordsEveryOperation) {
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  const std::size_t create = FindAction(*pair.engine, "create_file(/f0");
  const std::size_t unlink = FindAction(*pair.engine, "unlink(/f0");
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  ASSERT_TRUE(pair.engine->ApplyAction(unlink).ok());
  ASSERT_TRUE(pair.engine->ApplyAction(unlink).ok());  // ENOENT both sides

  const auto& records = pair.engine->trace().records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].error_a, Errno::kOk);
  EXPECT_EQ(records[2].error_a, Errno::kENOENT);
  EXPECT_EQ(records[2].error_b, Errno::kENOENT);
  const std::string text = pair.engine->trace().ToText();
  EXPECT_NE(text.find("create_file(/f0"), std::string::npos);
  EXPECT_NE(text.find("ENOENT"), std::string::npos);
}

TEST(EngineTest, MetaOpsComposeCorrectly) {
  // write_file on a missing file fails with ENOENT on both sides (the
  // open step of the meta-op fails); after create it succeeds and the
  // data is identical (hash equality keeps holding).
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2);
  const std::size_t write = FindAction(*pair.engine, "write_file(/f0");
  ASSERT_TRUE(pair.engine->ApplyAction(write).ok());
  EXPECT_FALSE(pair.engine->violation_detected());
  ASSERT_EQ(pair.engine->trace().records().back().error_a, Errno::kENOENT);

  const std::size_t create = FindAction(*pair.engine, "create_file(/f0");
  ASSERT_TRUE(pair.engine->ApplyAction(create).ok());
  ASSERT_TRUE(pair.engine->ApplyAction(write).ok());
  EXPECT_FALSE(pair.engine->violation_detected());
  EXPECT_EQ(pair.engine->trace().records().back().error_a, Errno::kOk);
}

TEST(EngineTest, TraceCapBoundsMemory) {
  EngineOptions options;
  options.trace_cap = 5;
  EnginePair pair = MakePair(FsKind::kVerifs1, FsKind::kVerifs2, options);
  const std::size_t getdents = FindAction(*pair.engine, "getdents(/)");
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pair.engine->ApplyAction(getdents).ok());
  }
  EXPECT_EQ(pair.engine->trace().size(), 5u);
}

TEST(TraceTest, SerializationRoundTrip) {
  Trace trace;
  OpOutcome ok_outcome;
  OpOutcome err_outcome;
  err_outcome.error = Errno::kENOSPC;
  trace.Append(Operation{.kind = OpKind::kWriteFile,
                         .path = "/f",
                         .offset = 100,
                         .size = 42,
                         .fill = 0x5a},
               ok_outcome, err_outcome, true);
  trace.Append(Operation{.kind = OpKind::kRename,
                         .path = "/a",
                         .path2 = "/b"},
               ok_outcome, ok_outcome, false);
  trace.Append(Operation{.kind = OpKind::kSetXattr,
                         .path = "/f",
                         .xattr_name = "user.k"},
               ok_outcome, ok_outcome, false);

  const Bytes image = trace.Serialize();
  auto restored = Trace::Deserialize(image);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().size(), 3u);
  EXPECT_EQ(restored.value().records()[0].error_b, Errno::kENOSPC);
  EXPECT_TRUE(restored.value().records()[0].violation);
  EXPECT_EQ(restored.value().records()[1].op.path2, "/b");
  EXPECT_EQ(restored.value().records()[2].op.xattr_name, "user.k");
  EXPECT_EQ(restored.value().ToText(), trace.ToText());

  EXPECT_FALSE(Trace::Deserialize(Bytes{9, 9}).ok());
}

TEST(TraceTest, ReplayReproducesADiscrepancy) {
  // Replay a trace on a fresh buggy pair and confirm the discrepancy
  // reappears at the same spot; outcome checks only, so it surfaces
  // where an operation returns the wrong thing.
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.fs_b.bugs.size_update_only_on_capacity_growth = true;
  config.engine.compare_states = false;

  // Craft the triggering sequence by hand: create, write to grow the
  // buffer, then append within capacity (bug #4 loses the size update).
  Trace trace;
  OpOutcome dummy;
  const Operation create{.kind = OpKind::kCreateFile, .path = "/f0",
                         .mode = 0644};
  const Operation write1{.kind = OpKind::kWriteFile, .path = "/f0",
                         .offset = 0, .size = 10, .fill = 0x41};
  const Operation write2{.kind = OpKind::kWriteFile, .path = "/f0",
                         .offset = 10, .size = 4, .fill = 0x42};
  const Operation stat{.kind = OpKind::kStat, .path = "/f0"};
  trace.Append(create, dummy, dummy, false);
  trace.Append(write1, dummy, dummy, false);
  trace.Append(write2, dummy, dummy, false);
  trace.Append(stat, dummy, dummy, true);

  auto buggy = Mcfs::Create(config);
  ASSERT_TRUE(buggy.ok());
  const ReplayResult result = buggy.value()->Replay(trace);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.violation_index, 3u);  // the stat sees the short file
  EXPECT_NE(result.detail.find("size"), std::string::npos);

  // The same trace on a clean pair replays without any discrepancy.
  config.fs_b.bugs = verifs::VerifsBugs::None();
  auto fixed = Mcfs::Create(config);
  ASSERT_TRUE(fixed.ok());
  const ReplayResult clean_result = fixed.value()->Replay(trace);
  EXPECT_FALSE(clean_result.reproduced) << clean_result.detail;
}

}  // namespace
}  // namespace mcfs::core
