// Operation-pool tests: the bounded action set (paper §4) — enumeration,
// feature filtering, the deliberate inclusion of invalid operations, and
// stable human-readable names.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mcfs/ops.h"

namespace mcfs::core {
namespace {

std::vector<fs::FsFeature> AllFeatures() {
  return {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
          fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
          fs::FsFeature::kXattr};
}

TEST(OpsTest, DefaultPoolIsBoundedAndDiverse) {
  const auto ops = ParameterPool::Default().EnumerateAll(AllFeatures());
  EXPECT_GT(ops.size(), 50u);
  EXPECT_LT(ops.size(), 400u);  // bounded, as the paper requires

  std::set<OpKind> kinds;
  for (const auto& op : ops) kinds.insert(op.kind);
  // Every op family is represented.
  for (OpKind kind :
       {OpKind::kCreateFile, OpKind::kWriteFile, OpKind::kReadFile,
        OpKind::kTruncate, OpKind::kMkdir, OpKind::kRmdir, OpKind::kUnlink,
        OpKind::kGetDents, OpKind::kStat, OpKind::kRename, OpKind::kLink,
        OpKind::kSymlink, OpKind::kChmod, OpKind::kAccess,
        OpKind::kSetXattr}) {
    EXPECT_TRUE(kinds.contains(kind)) << OpKindName(kind);
  }
}

TEST(OpsTest, InvalidOperationsAreGeneratedOnPurpose) {
  // "Invalid sequences are critical because they exercise error paths,
  // where bugs often lurk" (paper §2): the pool includes cross-type
  // nonsense like rmdir on a file path and write to a directory path.
  const auto ops = ParameterPool::Default().EnumerateAll(AllFeatures());
  bool rmdir_on_file = false;
  bool write_to_dir = false;
  bool unlink_on_dir = false;
  for (const auto& op : ops) {
    if (op.kind == OpKind::kRmdir && op.path == "/f0") rmdir_on_file = true;
    if (op.kind == OpKind::kWriteFile && op.path == "/d0") {
      write_to_dir = true;
    }
    if (op.kind == OpKind::kUnlink && op.path == "/d0") unlink_on_dir = true;
  }
  EXPECT_TRUE(rmdir_on_file);
  EXPECT_TRUE(write_to_dir);
  EXPECT_TRUE(unlink_on_dir);
}

TEST(OpsTest, FeatureFilteringDropsWholeFamilies) {
  const auto full = ParameterPool::Default().EnumerateAll(AllFeatures());
  const auto none = ParameterPool::Default().EnumerateAll({});
  EXPECT_LT(none.size(), full.size());
  for (const auto& op : none) {
    fs::FsFeature feature;
    EXPECT_FALSE(op.RequiresFeature(&feature)) << op.ToString();
  }
}

TEST(OpsTest, RequiresFeatureMapping) {
  fs::FsFeature feature;
  EXPECT_TRUE(Operation{.kind = OpKind::kRename}.RequiresFeature(&feature));
  EXPECT_EQ(feature, fs::FsFeature::kRename);
  EXPECT_TRUE(Operation{.kind = OpKind::kSymlink}.RequiresFeature(&feature));
  EXPECT_EQ(feature, fs::FsFeature::kSymlink);
  EXPECT_TRUE(
      Operation{.kind = OpKind::kReadLink}.RequiresFeature(&feature));
  EXPECT_EQ(feature, fs::FsFeature::kSymlink);
  EXPECT_TRUE(
      Operation{.kind = OpKind::kSetXattr}.RequiresFeature(&feature));
  EXPECT_EQ(feature, fs::FsFeature::kXattr);
  EXPECT_FALSE(Operation{.kind = OpKind::kMkdir}.RequiresFeature(&feature));
  EXPECT_FALSE(
      Operation{.kind = OpKind::kWriteFile}.RequiresFeature(&feature));
}

TEST(OpsTest, ToStringIsDescriptive) {
  const Operation write{.kind = OpKind::kWriteFile,
                        .path = "/f0",
                        .offset = 100,
                        .size = 3000,
                        .fill = 0x41};
  EXPECT_EQ(write.ToString(),
            "write_file(/f0, off=100, size=3000, fill=0x41)");

  const Operation rename{.kind = OpKind::kRename,
                         .path = "/a",
                         .path2 = "/b"};
  EXPECT_EQ(rename.ToString(), "rename(/a, /b)");

  const Operation chmod{.kind = OpKind::kChmod, .path = "/f", .mode = 0600};
  EXPECT_EQ(chmod.ToString(), "chmod(/f, mode=0600)");
}

TEST(OpsTest, ActionNamesAreUnique) {
  // The trail replays by name; duplicate names would make it ambiguous.
  const auto ops = ParameterPool::Default().EnumerateAll(AllFeatures());
  std::set<std::string> names;
  for (const auto& op : ops) {
    EXPECT_TRUE(names.insert(op.ToString()).second)
        << "duplicate action: " << op.ToString();
  }
}

TEST(OpsTest, TinyPoolIsTiny) {
  const auto ops = ParameterPool::Tiny().EnumerateAll(AllFeatures());
  EXPECT_LT(ops.size(), 20u);
  EXPECT_GT(ops.size(), 5u);
}

// ---------------------------------------------------------------------------
// TouchedPaths / StaticTouchedPaths (the POR footprint contract)

bool Dirties(const TouchedPathSet& touched, const std::string& path) {
  return std::find(touched.dirty.begin(), touched.dirty.end(), path) !=
         touched.dirty.end();
}

TEST(TouchedPathsTest, FailedMutationsReVerifyLexicalParentsToo) {
  // Regression: the failed-mutation guard used to re-hash only the named
  // targets. A buggy file system that mutates the PARENT before
  // reporting failure (mkdir's EEXIST path scribbling on the parent,
  // as the mkdir_eexist_chowns_parent mutant does) left the incremental
  // cache stale exactly where the comparison needed it fresh.
  OpOutcome failed;
  failed.error = Errno::kEEXIST;

  const Operation mkdir{.kind = OpKind::kMkdir, .path = "/d0/d2"};
  const TouchedPathSet touched = TouchedPaths(mkdir, failed);
  EXPECT_TRUE(Dirties(touched, "/d0/d2"));
  EXPECT_TRUE(Dirties(touched, "/d0"));

  const Operation rename{.kind = OpKind::kRename,
                         .path = "/d0/f2",
                         .path2 = "/d1/x"};
  const TouchedPathSet both = TouchedPaths(rename, failed);
  EXPECT_TRUE(Dirties(both, "/d0/f2"));
  EXPECT_TRUE(Dirties(both, "/d0"));
  EXPECT_TRUE(Dirties(both, "/d1/x"));
  EXPECT_TRUE(Dirties(both, "/d1"));

  // The root is never part of the hashed path set: a top-level target
  // contributes only itself.
  const Operation top{.kind = OpKind::kUnlink, .path = "/f0"};
  const TouchedPathSet top_touched = TouchedPaths(top, failed);
  EXPECT_TRUE(Dirties(top_touched, "/f0"));
  EXPECT_EQ(top_touched.dirty.size(), 1u);
}

TEST(StaticTouchedPathsTest, LinkFootprintIncludesBothParents) {
  // Regression: the static footprint for link must cover the SOURCE
  // parent as well as the destination's — the failed-link guard re-
  // hashes it, and the static set must be a superset of every runtime
  // outcome's dirty set.
  const Operation link{.kind = OpKind::kLink,
                       .path = "/d0/f2",
                       .path2 = "/d1/h"};
  const mc::ActionFootprint fp = StaticTouchedPaths(link);
  EXPECT_FALSE(fp.full);
  EXPECT_FALSE(fp.reads_only);
  for (const char* path : {"/d0/f2", "/d0", "/d1/h", "/d1"}) {
    EXPECT_NE(std::find(fp.paths.begin(), fp.paths.end(), path),
              fp.paths.end())
        << path;
  }
}

TEST(StaticTouchedPathsTest, ReadsAndDegenerateRenamesAreClassified) {
  const Operation stat{.kind = OpKind::kStat, .path = "/f0"};
  EXPECT_TRUE(StaticTouchedPaths(stat).reads_only);

  const Operation getdents{.kind = OpKind::kGetDents, .path = "/"};
  const mc::ActionFootprint root = StaticTouchedPaths(getdents);
  EXPECT_TRUE(root.reads_only);
  ASSERT_EQ(root.paths.size(), 1u);
  EXPECT_EQ(root.paths[0], "/");

  // Self-rename and rename-into-own-subtree have no bounded footprint
  // (they mirror TouchedPaths' full-recompute fallback).
  const Operation self{.kind = OpKind::kRename, .path = "/a", .path2 = "/a"};
  EXPECT_TRUE(StaticTouchedPaths(self).full);
  const Operation nested{.kind = OpKind::kRename,
                         .path = "/a",
                         .path2 = "/a/b"};
  EXPECT_TRUE(StaticTouchedPaths(nested).full);
  const Operation restore{.kind = OpKind::kRestore};
  EXPECT_TRUE(StaticTouchedPaths(restore).full);
}

TEST(StaticTouchedPathsTest, StaticFootprintCoversEveryRuntimeOutcome) {
  // The soundness contract the dependence relation rests on: for every
  // enumerable operation and every outcome class (success and failure),
  // each path TouchedPaths dirties or evicts is covered by some static
  // footprint path (equal or an ancestor).
  const auto covers = [](const mc::ActionFootprint& fp,
                         const std::string& path) {
    if (fp.full) return true;
    for (const std::string& p : fp.paths) {
      if (p == path) return true;
      // Lexical ancestor: p + '/' prefixes path.
      if (path.size() > p.size() && path.compare(0, p.size(), p) == 0 &&
          path[p.size()] == '/') {
        return true;
      }
    }
    return false;
  };

  const auto ops = ParameterPool::Default().EnumerateAll(AllFeatures());
  for (const auto& op : ops) {
    const mc::ActionFootprint fp = StaticTouchedPaths(op);
    for (const Errno error : {Errno::kOk, Errno::kENOENT, Errno::kEEXIST}) {
      OpOutcome outcome;
      outcome.error = error;
      const TouchedPathSet touched = TouchedPaths(op, outcome);
      if (touched.full) {
        EXPECT_TRUE(fp.full) << op.ToString();
        continue;
      }
      for (const std::string& path : touched.dirty) {
        EXPECT_TRUE(covers(fp, path))
            << op.ToString() << " -> " << ErrnoName(error) << " dirties "
            << path << " outside its static footprint";
      }
      for (const std::string& path : touched.evicted_subtrees) {
        EXPECT_TRUE(covers(fp, path))
            << op.ToString() << " evicts " << path
            << " outside its static footprint";
      }
      if (touched.relabel) {
        EXPECT_TRUE(covers(fp, touched.relabel_from)) << op.ToString();
        EXPECT_TRUE(covers(fp, touched.relabel_to)) << op.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace mcfs::core
