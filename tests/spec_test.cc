// The executable POSIX specification (src/spec/spec_fs.h) under test —
// three angles, matching its three roles:
//
//  1. Differential conformance: 250 random pool-drawn operations against
//     ext2f, VeriFS1, and VeriFS2, asserting outcome + errno + abstract
//     digest agreement after every single step (the style of
//     incremental_abstraction_test.cc). The spec is only a usable oracle
//     if it is indistinguishable from the proven-canonical
//     implementations on the entire pool surface.
//  2. Spec-specific semantics: O(state) snapshot save/restore/discard
//     round trips, the transcription's error-precedence edge cases, and
//     the deliberate no-ENOSPC exemption.
//  3. Oracle voting: Vote with an oracle index —
//     absolute checking, "spec says majority is wrong", no suspicion
//     against the oracle — plus an end-to-end oracle-mode engine run.
//
// Runs under `ctest -L spec`.
#include <gtest/gtest.h>

#include <random>

#include "fs/ext2/ext2fs.h"
#include "mc/explorer.h"
#include "mcfs/abstraction.h"
#include "mcfs/harness.h"
#include "spec/spec_fs.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::core {
namespace {

struct Stack {
  std::shared_ptr<storage::RamDisk> disk;  // kernel file systems only
  fs::FileSystemPtr filesystem;
  std::unique_ptr<vfs::Vfs> v;
};

Stack MakeStack(const std::string& kind) {
  Stack stack;
  if (kind == "ext2") {
    stack.disk =
        std::make_shared<storage::RamDisk>("d", 512 * 1024, nullptr);
    stack.filesystem = std::make_shared<fs::Ext2Fs>(stack.disk);
  } else if (kind == "verifs1") {
    stack.filesystem = std::make_shared<verifs::Verifs1>();
  } else if (kind == "verifs2") {
    stack.filesystem = std::make_shared<verifs::Verifs2>();
  } else {
    stack.filesystem = std::make_shared<spec::SpecFs>();
  }
  stack.v = std::make_unique<vfs::Vfs>(stack.filesystem, nullptr);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.v->Mount().ok());
  return stack;
}

std::vector<fs::FsFeature> CommonFeatures(const fs::FileSystem& a,
                                          const fs::FileSystem& b) {
  std::vector<fs::FsFeature> features;
  for (fs::FsFeature f :
       {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
        fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
        fs::FsFeature::kXattr}) {
    if (a.Supports(f) && b.Supports(f)) features.push_back(f);
  }
  return features;
}

Md5Digest Digest(vfs::Vfs& v, const AbstractionOptions& options) {
  IncrementalAbstraction fold;
  auto digest = fold.FullRecompute(v, options);
  EXPECT_TRUE(digest.ok());
  return digest.value_or(Md5Digest{});
}

// 250 pool-drawn operations against the spec and one real file system in
// lockstep: every outcome (errno, data, dirents, attrs) and every
// post-operation abstract digest must agree.
void RunDifferential(const std::string& other_kind, std::uint32_t seed,
                     int steps) {
  Stack spec = MakeStack("spec");
  Stack other = MakeStack(other_kind);
  const std::vector<Operation> actions =
      ParameterPool::Default().EnumerateAll(
          CommonFeatures(*spec.filesystem, *other.filesystem));
  ASSERT_FALSE(actions.empty());

  AbstractionOptions abstraction;
  CheckerOptions checker;

  std::mt19937 rng(seed);
  for (int step = 0; step < steps; ++step) {
    const Operation& op = actions[rng() % actions.size()];
    const OpOutcome a = ExecuteOp(*spec.v, op);
    const OpOutcome b = ExecuteOp(*other.v, op);
    const CheckVerdict verdict = CompareOutcomes(op, a, b, checker);
    ASSERT_TRUE(verdict.ok)
        << "spec vs " << other_kind << " diverged at step " << step
        << " after " << op.ToString() << ": " << verdict.detail;
    ASSERT_EQ(Digest(*spec.v, abstraction), Digest(*other.v, abstraction))
        << "spec vs " << other_kind << " digest diverged at step " << step
        << " after " << op.ToString() << " -> " << ErrnoName(a.error);
  }
}

TEST(SpecDifferential, AgreesWithExt2OnEveryStep) {
  RunDifferential("ext2", 17, 250);
}

TEST(SpecDifferential, AgreesWithVerifs1OnEveryStep) {
  RunDifferential("verifs1", 19, 250);
}

TEST(SpecDifferential, AgreesWithVerifs2OnEveryStep) {
  RunDifferential("verifs2", 23, 250);
}

// ---------------------------------------------------------------------
// Snapshots: O(state) deep copies behind the CheckpointableFs handles.
// ---------------------------------------------------------------------

class SpecFsTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fs_.Mkfs().ok());
    ASSERT_TRUE(fs_.Mount().ok());
  }

  void WriteFile(const std::string& path, std::string_view data) {
    auto fd = fs_.Open(path, fs::kCreate | fs::kWrOnly, 0644);
    ASSERT_TRUE(fd.ok()) << ErrnoName(fd.error());
    ASSERT_TRUE(fs_.Write(fd.value(), 0, AsBytes(data)).ok());
    ASSERT_TRUE(fs_.Close(fd.value()).ok());
  }

  std::string ReadFile(const std::string& path) {
    auto fd = fs_.Open(path, fs::kRdOnly, 0);
    EXPECT_TRUE(fd.ok()) << ErrnoName(fd.error());
    if (!fd.ok()) return {};
    auto data = fs_.Read(fd.value(), 0, 1 << 16);
    EXPECT_TRUE(data.ok());
    EXPECT_TRUE(fs_.Close(fd.value()).ok());
    return data.ok() ? std::string(AsString(data.value())) : std::string{};
  }

  spec::SpecFs fs_;
};

TEST_F(SpecFsTest, SnapshotRestoreRoundTrip) {
  WriteFile("/keep", "original");
  ASSERT_TRUE(fs_.Mkdir("/d", 0755).ok());
  auto snap = fs_.Checkpoint();
  ASSERT_TRUE(snap.ok());

  // Mutate everything the snapshot covered.
  WriteFile("/keep", "clobbered");
  ASSERT_TRUE(fs_.Unlink("/keep").ok() || true);  // may or may not exist
  WriteFile("/extra", "x");
  ASSERT_TRUE(fs_.Rmdir("/d").ok());

  // Restore is non-consuming: back to the checkpointed tree, twice.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(fs_.Restore(snap.value()).ok()) << "round " << round;
    EXPECT_EQ(ReadFile("/keep"), "original");
    auto attr = fs_.GetAttr("/d");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr.value().type, fs::FileType::kDirectory);
    EXPECT_EQ(fs_.GetAttr("/extra").error(), Errno::kENOENT);
    WriteFile("/extra", "x");  // diverge again before round 2
  }

  auto stats = fs_.Stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_GT(stats.total_bytes, 0u);

  ASSERT_TRUE(fs_.Discard(snap.value()).ok());
  EXPECT_EQ(fs_.Restore(snap.value()).error(), Errno::kENOENT);
  EXPECT_EQ(fs_.Discard(snap.value()).error(), Errno::kENOENT);
}

TEST_F(SpecFsTest, SnapshotsAreIsolatedFromEachOther) {
  WriteFile("/f", "one");
  auto first = fs_.Checkpoint();
  ASSERT_TRUE(first.ok());
  WriteFile("/f", "two");
  auto second = fs_.Checkpoint();
  ASSERT_TRUE(second.ok());

  ASSERT_TRUE(fs_.Restore(first.value()).ok());
  EXPECT_EQ(ReadFile("/f"), "one");
  ASSERT_TRUE(fs_.Restore(second.value()).ok());
  EXPECT_EQ(ReadFile("/f"), "two");
}

TEST_F(SpecFsTest, ExportImportRoundTrip) {
  WriteFile("/f", "payload");
  ASSERT_TRUE(fs_.SetXattr("/f", "user.tag", AsBytes("v")).ok());
  const Bytes image = fs_.ExportState();
  ASSERT_FALSE(image.empty());

  ASSERT_TRUE(fs_.Unlink("/f").ok());
  fs_.ImportState(ByteView(image.data(), image.size()));
  EXPECT_EQ(ReadFile("/f"), "payload");
  auto value = fs_.GetXattr("/f", "user.tag");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsString(value.value()), "v");
}

// ---------------------------------------------------------------------
// Error precedence: the transcription's ordering rules, pinned directly.
// ---------------------------------------------------------------------

TEST_F(SpecFsTest, EnotdirTakesPrecedenceOverEnoent) {
  WriteFile("/f", "x");
  // A file component mid-path is ENOTDIR even though the leaf also does
  // not exist; a missing directory component is ENOENT.
  EXPECT_EQ(fs_.GetAttr("/f/child").error(), Errno::kENOTDIR);
  EXPECT_EQ(fs_.GetAttr("/missing/child").error(), Errno::kENOENT);
  EXPECT_EQ(fs_.Open("/f/child", fs::kCreate | fs::kWrOnly, 0644).error(),
            Errno::kENOTDIR);
  EXPECT_EQ(fs_.Rmdir("/f").error(), Errno::kENOTDIR);
  EXPECT_EQ(fs_.Rmdir("/missing").error(), Errno::kENOENT);
}

TEST_F(SpecFsTest, RenameOntoSelfIsANoOp) {
  WriteFile("/f", "content");
  ASSERT_TRUE(fs_.Rename("/f", "/f").ok());
  EXPECT_EQ(ReadFile("/f"), "content");
  // Renaming a directory into its own subtree is EINVAL.
  ASSERT_TRUE(fs_.Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs_.Rename("/d", "/d/sub").error(), Errno::kEINVAL);
}

TEST_F(SpecFsTest, LinkToDirectoryIsEperm) {
  ASSERT_TRUE(fs_.Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs_.Link("/d", "/alias").error(), Errno::kEPERM);
  // And onto an existing destination, EEXIST.
  WriteFile("/f", "x");
  WriteFile("/g", "y");
  EXPECT_EQ(fs_.Link("/f", "/g").error(), Errno::kEEXIST);
}

TEST_F(SpecFsTest, NeverReportsEnospc) {
  // The deliberate exemption: the spec's state is maps and byte
  // sequences, it has no allocator to run out of. A write far beyond the
  // virtual capacity still succeeds; free space merely clamps to zero.
  auto fd = fs_.Open("/big", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  const Bytes chunk(1 << 20, 0x41);
  for (int i = 0; i < 10; ++i) {  // 10 MB > the 8 MB virtual capacity
    auto n = fs_.Write(fd.value(), static_cast<std::uint64_t>(i) << 20,
                       ByteView(chunk.data(), chunk.size()));
    ASSERT_TRUE(n.ok()) << ErrnoName(n.error());
    ASSERT_EQ(n.value(), chunk.size());
  }
  ASSERT_TRUE(fs_.Close(fd.value()).ok());
  auto statfs = fs_.StatFs();
  ASSERT_TRUE(statfs.ok());
  EXPECT_EQ(statfs.value().free_bytes, 0u);
}

// ---------------------------------------------------------------------
// Oracle voting: Vote with an oracle index.
// ---------------------------------------------------------------------

OpOutcome Outcome(Errno error) {
  OpOutcome outcome;
  outcome.error = error;
  return outcome;
}

Operation RmdirOp() {
  Operation op;
  op.kind = OpKind::kRmdir;
  op.path = "/d1";
  return op;
}

TEST(OracleVote, SpecInMinorityFlagsTheMajority) {
  // Two implementations agree on the wrong errno (the dual-mutant
  // shape); the spec alone is right. Relative voting would blame the
  // spec — oracle mode blames the majority instead.
  const std::vector<OpOutcome> outcomes = {
      Outcome(Errno::kENOTDIR), Outcome(Errno::kENOTDIR),
      Outcome(Errno::kENOENT)};
  const VoteResult vote =
      Vote(RmdirOp(), outcomes, CheckerOptions{},
                              /*oracle=*/2);
  EXPECT_FALSE(vote.unanimous);
  EXPECT_TRUE(vote.oracle_overruled_majority);
  EXPECT_EQ(vote.group_of[2], 0);  // the oracle's group is the reference
  ASSERT_EQ(vote.minority.size(), 2u);
  EXPECT_EQ(vote.minority[0], 0u);
  EXPECT_EQ(vote.minority[1], 1u);
  EXPECT_NE(vote.detail.find("spec says majority is wrong"),
            std::string::npos)
      << vote.detail;
}

TEST(OracleVote, SpecInMajorityAttributesSuspicionNormally) {
  const std::vector<OpOutcome> outcomes = {
      Outcome(Errno::kENOENT), Outcome(Errno::kENOTDIR),
      Outcome(Errno::kENOENT)};
  const VoteResult vote =
      Vote(RmdirOp(), outcomes, CheckerOptions{},
                              /*oracle=*/2);
  EXPECT_FALSE(vote.unanimous);
  EXPECT_FALSE(vote.oracle_overruled_majority);
  ASSERT_EQ(vote.minority.size(), 1u);
  EXPECT_EQ(vote.minority[0], 1u);
  EXPECT_EQ(vote.detail.find("spec says"), std::string::npos);
}

TEST(OracleVote, TwoWayDegeneratesToAbsoluteChecking) {
  // With two members there is no majority to speak of; the oracle's
  // outcome is simply the truth and the other member is the suspect —
  // exactly the spec-paired campaign axis.
  const std::vector<OpOutcome> outcomes = {Outcome(Errno::kENOENT),
                                           Outcome(Errno::kENOTDIR)};
  const VoteResult vote =
      Vote(RmdirOp(), outcomes, CheckerOptions{},
                              /*oracle=*/0);
  EXPECT_FALSE(vote.unanimous);
  EXPECT_EQ(vote.group_of[0], 0);
  ASSERT_EQ(vote.minority.size(), 1u);
  EXPECT_EQ(vote.minority[0], 1u);
}

TEST(OracleVote, OracleIsNeverASuspect) {
  // Whatever the grouping, the oracle's group is the reference, so the
  // oracle cannot land in the minority — even when every other member
  // agrees against it.
  for (std::size_t oracle = 0; oracle < 4; ++oracle) {
    const std::vector<OpOutcome> outcomes = {
        Outcome(Errno::kENOENT), Outcome(Errno::kENOTDIR),
        Outcome(Errno::kENOTDIR), Outcome(Errno::kENOTDIR)};
    const VoteResult vote = Vote(
        RmdirOp(), outcomes, CheckerOptions{}, oracle);
    EXPECT_FALSE(vote.unanimous);
    EXPECT_EQ(vote.group_of[oracle], 0) << "oracle " << oracle;
    for (std::size_t suspect : vote.minority) {
      EXPECT_NE(suspect, oracle);
    }
  }
}

TEST(OracleVote, EngineRunNeverAccruesSuspicionAgainstTheSpec) {
  // End-to-end oracle mode: the spec as member #0, a buggy VeriFS2, and
  // a clean VeriFS2. The buggy member collects both suspicion and
  // oracle disagreements; the spec's own counters stay zero.
  std::vector<std::unique_ptr<FsUnderTest>> owned;
  std::vector<FsUnderTest*> panel;
  for (int i = 0; i < 3; ++i) {
    FsUnderTestConfig config;
    config.kind = i == 0 ? FsKind::kSpec : FsKind::kVerifs2;
    config.strategy = StateStrategy::kIoctl;
    config.fuse_transport = false;
    if (i == 1) config.bugs.unlink_enoent_as_eperm = true;
    auto fut = FsUnderTest::Create(config, nullptr);
    ASSERT_TRUE(fut.ok());
    owned.push_back(std::move(fut).value());
    panel.push_back(owned.back().get());
  }

  EngineOptions options;
  options.oracle_index = 0;
  SyscallEngine engine(panel, options);

  mc::ExplorerOptions eopts;
  eopts.max_operations = 5'000;
  eopts.max_depth = 4;
  eopts.seed = 1;
  mc::Explorer explorer(engine, eopts);
  mc::ExploreStats stats = explorer.Run();

  ASSERT_TRUE(stats.violation_found);
  EXPECT_EQ(engine.suspicion_counts()[0], 0u);
  EXPECT_EQ(engine.oracle_disagreement_counts()[0], 0u);
  EXPECT_GT(engine.oracle_disagreement_counts()[1], 0u);
  EXPECT_EQ(engine.oracle_disagreement_counts()[2], 0u);

  McfsReport report;
  report.stats = stats;
  AttachOracleTally(engine, &report);
  ASSERT_EQ(report.oracle_disagreements.size(), 3u);
  EXPECT_NE(report.Summary().find("oracle disagreements:"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// The dual mutants: blind spot of relative checking, killed by the spec.
// ---------------------------------------------------------------------

TEST(SpecCampaign, DualMutantsSurviveRelativeButDieOnSpecAxis) {
  MutationCampaignOptions options;
  options.fuse_transport = false;  // in-process: fast
  options.max_operations = 8'000;
  options.seeds = {1, 2};
  options.only = {"dual_rmdir_missing_as_enotdir",
                  "dual_chmod_keeps_group_bits"};
  MutationCampaignReport report = RunMutationCampaign(options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  for (const MutantOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.dual) << o.name;
    // Relative axis: VeriFS1-with-bug vs VeriFS2-with-bug agree on the
    // wrong answer across the whole exploration budget.
    EXPECT_FALSE(o.detected) << o.name;
    // Spec axis: absolute checking kills it with a short, 1-minimal,
    // replay-confirmed reproducer.
    EXPECT_TRUE(o.spec_detected) << o.name;
    EXPECT_EQ(o.killed_by, "spec") << o.name;
    EXPECT_LE(o.spec_minimized_ops, 6u) << o.name;
    EXPECT_TRUE(o.spec_one_minimal) << o.name;
    EXPECT_TRUE(o.spec_replay_confirmed) << o.name;
    EXPECT_FALSE(o.spec_minimized_trace.empty()) << o.name;
  }
  EXPECT_TRUE(report.missed.empty());
  EXPECT_TRUE(report.unexpected.empty());
  EXPECT_EQ(report.spec_expected_detections, 2u);
  EXPECT_EQ(report.spec_detections, 2u);
  EXPECT_DOUBLE_EQ(report.spec_kill_rate, 1.0);
  EXPECT_TRUE(report.spec_missed.empty());

  // The JSON artifact carries the spec-axis columns.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"killed_by\": \"spec\""), std::string::npos);
  EXPECT_NE(json.find("\"spec_detected\": true"), std::string::npos);
  EXPECT_NE(json.find("\"spec_kill_rate\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dual\": true"), std::string::npos);
}

}  // namespace
}  // namespace mcfs::core
