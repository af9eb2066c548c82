// Golden-value pin for VeriFS1's and VeriFS2's checkpoint/restore
// protocol: a seeded sequence of Default-pool operations mixed with
// checkpoints, discards and restores to a random live handle (forward
// restores included) must reproduce exactly the errnos, the daemon's
// memory image after every restore, the ordered kernel-cache
// invalidation stream and the snapshot-pool accounting that were
// recorded when the values below were computed. Each family runs with
// copy-on-write and with deep-copy snapshots.
//
// A fixed prefix reaches every branch of the restore protocol before the
// random part starts: an O(dirty) restore with a later snapshot live
// (the undone records are re-appended) and one without (the log is
// rewound), a forward restore, and a copy-on-write restore that falls
// back to the full path because its log prefix is gone, once after
// ImportState and once after Unmount/Mkfs/Mount. The mutant variants
// pin restore_skips_one_inode (VeriFS1 only; VeriFS2 ignores it, so its
// values equal the plain run's) and skip_cache_invalidation_on_restore,
// whose invalidation stream stays empty. The long runs push the
// invalidation log past kMaxInvalRecords with an old snapshot live, so
// compaction trims and then overflows, and later trims alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fs/kernel_notifier.h"
#include "mcfs/ops.h"
#include "mcfs/trace.h"
#include "util/md5.h"
#include "util/rng.h"
#include "verifs/cow_state.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"
#include "vfs/vfs.h"

namespace mcfs::verifs {
namespace {

constexpr int kRandomSteps = 400;
constexpr std::size_t kMaxLiveSnapshots = 6;
constexpr std::uint64_t kSeed = 20212;

// Hashes every invalidation in the order the file system sends it.
class RecordingNotifier final : public fs::KernelNotifier {
 public:
  void InvalEntry(const std::string& parent_path,
                  const std::string& name) override {
    md5_.Update("E");
    md5_.Update(parent_path);
    md5_.UpdateU64(0);
    md5_.Update(name);
    md5_.UpdateU64(0);
    ++count_;
  }
  void InvalInode(fs::InodeNum ino) override {
    md5_.Update("I");
    md5_.UpdateU64(ino);
    ++count_;
  }

  std::string Digest() { return md5_.Final().ToHex(); }
  std::uint64_t count() const { return count_; }

 private:
  Md5 md5_;
  std::uint64_t count_ = 0;
};

// The four streams a run pins.
struct Recorder {
  Md5 errnos;
  Md5 images;  // ExportState() after every restore
  Md5 stats;   // Stats() after every checkpoint and discard
  RecordingNotifier notifier;
  int restores = 0;

  void RecordErrno(Errno e) {
    errnos.UpdateU64(static_cast<std::uint64_t>(e));
  }
  void RecordStats(const fs::SnapshotStats& s) {
    for (std::uint64_t v :
         {s.count, s.total_bytes, s.shared_bytes, s.exclusive_bytes}) {
      stats.UpdateU64(v);
    }
  }
};

struct Golden {
  const char* name;
  const char* errno_md5;
  const char* image_md5;
  const char* inval_md5;
  std::uint64_t inval_count;
  const char* stats_md5;
};

// Drives one file system and its snapshot handles, recording as it goes.
template <typename Fs>
class Driver {
 public:
  Driver(Fs& f, Recorder& rec) : fs_(f), rec_(rec) {}

  fs::SnapshotId Checkpoint() {
    auto id = fs_.Checkpoint();
    rec_.RecordErrno(id.ok() ? Errno::kOk : id.error());
    rec_.RecordStats(fs_.Stats());
    if (!id.ok()) return fs::kInvalidSnapshotId;
    live_.push_back(id.value());
    return id.value();
  }

  void Restore(fs::SnapshotId id) {
    const Status s = fs_.Restore(id);
    rec_.RecordErrno(s.ok() ? Errno::kOk : s.error());
    rec_.images.Update(fs_.ExportState());
    ++rec_.restores;
  }

  void Discard(fs::SnapshotId id) {
    const Status s = fs_.Discard(id);
    rec_.RecordErrno(s.ok() ? Errno::kOk : s.error());
    rec_.RecordStats(fs_.Stats());
    std::erase(live_, id);
  }

  void Record(const Status& s) {
    rec_.RecordErrno(s.ok() ? Errno::kOk : s.error());
  }

  std::vector<fs::SnapshotId>& live() { return live_; }

 private:
  Fs& fs_;
  Recorder& rec_;
  std::vector<fs::SnapshotId> live_;
};

template <typename Fs, typename Options>
void RunSequence(Options options, Recorder& rec) {
  auto filesystem = std::make_shared<Fs>(options);
  Fs& f = *filesystem;
  f.SetNotifier(&rec.notifier);
  vfs::VfsOptions vfs_options;
  vfs_options.enable_caches = false;  // every call reaches the file system
  vfs::Vfs v(filesystem, nullptr, vfs_options);
  ASSERT_TRUE(f.Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  Driver<Fs> d(f, rec);

  // ---- fixed prefix: one visit to every restore branch ----
  d.Record(f.Mkdir("/a", 0755));
  const fs::SnapshotId s1 = d.Checkpoint();
  d.Record(f.Mkdir("/b", 0755));
  const fs::SnapshotId s2 = d.Checkpoint();
  d.Record(f.Mkdir("/c", 0755));
  d.Restore(s1);  // s2 is later and live: the undone records re-append
  d.Restore(s2);  // forward restore
  d.Discard(s2);
  d.Record(f.Mkdir("/d", 0755));
  d.Restore(s1);  // nothing later is live: the log rewinds
  d.Record(f.Mkdir("/e", 0755));
  const fs::SnapshotId s3 = d.Checkpoint();
  const Bytes image = f.ExportState();
  d.Record(f.Mkdir("/f", 0755));
  f.ImportState(image);  // an untracked rollback overflows the log
  rec.images.Update(f.ExportState());
  d.Record(f.Mkdir("/g", 0755));
  d.Restore(s1);  // COW: the log no longer covers s1, full path; s3 live
  d.Restore(s3);  // full path again, nothing later live
  d.Record(f.Mkdir("/h", 0755));
  ASSERT_TRUE(v.Unmount().ok());
  d.Record(f.Mkfs());
  ASSERT_TRUE(v.Mount().ok());
  d.Restore(s3);  // COW: a reformat overflowed the log, full path
  d.Discard(s1);
  d.Discard(s3);

  // ---- seeded random part ----
  mcfs::core::ParameterPool pool = mcfs::core::ParameterPool::Default();
  pool.include_fsync_ops = true;
  std::vector<fs::FsFeature> features;
  for (fs::FsFeature feature :
       {fs::FsFeature::kRename, fs::FsFeature::kHardLink,
        fs::FsFeature::kSymlink, fs::FsFeature::kAccess,
        fs::FsFeature::kXattr}) {
    if (f.Supports(feature)) features.push_back(feature);
  }
  const std::vector<mcfs::core::Operation> actions =
      pool.EnumerateAll(features);
  ASSERT_FALSE(actions.empty());
  Rng rng(kSeed);
  for (int step = 0; step < kRandomSteps; ++step) {
    const std::uint64_t roll = rng.Below(100);
    std::vector<fs::SnapshotId>& live = d.live();
    if (roll < 60 || (roll >= 75 && live.empty())) {
      const auto& op = actions[rng.Below(actions.size())];
      rec.RecordErrno(mcfs::core::ExecuteOp(v, op).error);
    } else if (roll < 75) {
      if (live.size() >= kMaxLiveSnapshots) {
        d.Discard(live[rng.Below(live.size())]);
      } else {
        d.Checkpoint();
      }
    } else if (roll < 92) {
      d.Restore(live[rng.Below(live.size())]);
    } else {
      d.Discard(live[rng.Below(live.size())]);
    }
  }
  d.Restore(fs::kInvalidSnapshotId);  // unknown handle: ENOENT
  d.Discard(fs::kInvalidSnapshotId);
  ASSERT_TRUE(v.Unmount().ok());
  // Unmounted: no checkpoint, no restore.
  d.Checkpoint();
  if (!d.live().empty()) d.Restore(d.live().front());
}

// Past kMaxInvalRecords with an old snapshot live: compaction trims to
// it and, still over the cap, overflows. With the old snapshot gone, a
// second pass past the cap trims to the rolling snapshot and keeps the
// log.
template <typename Fs, typename Options>
void RunLongLog(Options options, Recorder& rec) {
  Fs f(options);
  f.SetNotifier(&rec.notifier);
  ASSERT_TRUE(f.Mkfs().ok());
  ASSERT_TRUE(f.Mount().ok());
  Driver<Fs> d(f, rec);
  auto fh = f.Open("/f", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fh.ok());
  d.Record(f.Close(fh.value()));
  d.Record(f.Mkdir("/d", 0755));
  auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      d.Record(f.Chmod("/f", i % 2 == 0 ? 0600 : 0644));
    }
  };
  churn(100);
  const fs::SnapshotId old = d.Checkpoint();
  fs::SnapshotId rolling = fs::kInvalidSnapshotId;
  auto pass = [&](int n) {
    for (int i = 0; i < n; i += 1000) {
      churn(1000);
      const fs::SnapshotId next = d.Checkpoint();
      if (rolling != fs::kInvalidSnapshotId) d.Discard(rolling);
      rolling = next;
    }
  };
  pass(static_cast<int>(kMaxInvalRecords) + 4000);
  d.Record(f.Mkdir("/e", 0755));
  d.Restore(rolling);  // taken after the overflow: O(dirty)
  d.Record(f.Mkdir("/g", 0755));
  d.Restore(old);  // its prefix overflowed: full path
  d.Discard(old);
  pass(static_cast<int>(kMaxInvalRecords) + 2000);
  d.Record(f.Mkdir("/h", 0755));
  d.Restore(rolling);  // the trim kept its records: O(dirty)
  d.Discard(rolling);
}

void ExpectGolden(const Golden& golden, Recorder& rec) {
  EXPECT_EQ(rec.errnos.Final().ToHex(), golden.errno_md5);
  EXPECT_EQ(rec.images.Final().ToHex(), golden.image_md5);
  EXPECT_EQ(rec.notifier.Digest(), golden.inval_md5);
  EXPECT_EQ(rec.notifier.count(), golden.inval_count);
  EXPECT_EQ(rec.stats.Final().ToHex(), golden.stats_md5);
}

// ---------------------------------------------------------------------------
// The seeded sequence, one case per family, snapshot kind and mutant.

struct SequenceCase {
  Golden golden;
  int family;  // 1 or 2
  bool cow;
  bool skips_one_inode;
  bool skips_invalidation;
};

void PrintTo(const SequenceCase& c, std::ostream* os) { *os << c.golden.name; }

class VerifsGoldenTest : public ::testing::TestWithParam<SequenceCase> {};

TEST_P(VerifsGoldenTest, SeededSequenceMatchesPinnedValues) {
  const SequenceCase& c = GetParam();
  VerifsBugs bugs;
  bugs.restore_skips_one_inode = c.skips_one_inode;
  bugs.skip_cache_invalidation_on_restore = c.skips_invalidation;
  Recorder rec;
  if (c.family == 1) {
    Verifs1Options options;
    options.bugs = bugs;
    options.cow_snapshots = c.cow;
    RunSequence<Verifs1>(options, rec);
  } else {
    Verifs2Options options;
    options.bugs = bugs;
    options.cow_snapshots = c.cow;
    RunSequence<Verifs2>(options, rec);
  }
  EXPECT_GT(rec.restores, 20);
  if (c.skips_invalidation) {
    EXPECT_EQ(rec.notifier.count(), 0u);
  }
  ExpectGolden(c.golden, rec);
}

INSTANTIATE_TEST_SUITE_P(
    VerifsFamilies, VerifsGoldenTest,
    ::testing::Values(
        SequenceCase{{"v1_cow", "e3b5d948f5462d98190b2823dba5f20a",
                      "94947a36e4ecc58e4e93f069c69cbc70",
                      "2c8439510e905dc3c82df16ff8543c4a", 403,
                      "a8ffef4674a618df583af6d4be34a0e8"},
                     1, true, false, false},
        SequenceCase{{"v1_deep", "e3b5d948f5462d98190b2823dba5f20a",
                      "94947a36e4ecc58e4e93f069c69cbc70",
                      "04c80760c028583c2ccd790a0524005a", 496,
                      "7da778bd63a31bfa3ec208c6613d1470"},
                     1, false, false, false},
        SequenceCase{{"v2_cow", "c5ef1cafb97c5a2e66af1f8834b477aa",
                      "280ec9ce10e68121bff0fcd85355af2a",
                      "3efa6b0d190d426ff3a2ea8e62c348ca", 471,
                      "ca1c7e1e8d12ec41b66cb08ab6c09d2d"},
                     2, true, false, false},
        SequenceCase{{"v2_deep", "c5ef1cafb97c5a2e66af1f8834b477aa",
                      "280ec9ce10e68121bff0fcd85355af2a",
                      "14cbe71492092d116cd3434b7f2e60b1", 463,
                      "bef21ed4799ae41c5a2fb44098c47ae0"},
                     2, false, false, false},
        SequenceCase{{"v1_cow_skips_one_inode",
                      "4d9372f88cbab06faa62fb3f363fae75",
                      "7a321bc4254f4655bab07b0e71d699bb",
                      "a31dd38c952f1af91c86cae07812b3dc", 393,
                      "c2c59b30d8b8e9283bce1bcfcdd0db68"},
                     1, true, true, false},
        SequenceCase{{"v1_deep_skips_one_inode",
                      "4d9372f88cbab06faa62fb3f363fae75",
                      "7a321bc4254f4655bab07b0e71d699bb",
                      "8fc2c10f8edc53bdc6b15406004393cb", 129,
                      "99a036d384f88a8c9d07457ac428a17e"},
                     1, false, true, false},
        SequenceCase{{"v2_cow_skips_one_inode",
                      "c5ef1cafb97c5a2e66af1f8834b477aa",
                      "280ec9ce10e68121bff0fcd85355af2a",
                      "3efa6b0d190d426ff3a2ea8e62c348ca", 471,
                      "ca1c7e1e8d12ec41b66cb08ab6c09d2d"},
                     2, true, true, false},
        SequenceCase{{"v1_cow_no_invalidation",
                      "e3b5d948f5462d98190b2823dba5f20a",
                      "94947a36e4ecc58e4e93f069c69cbc70",
                      "d41d8cd98f00b204e9800998ecf8427e", 0,
                      "a8ffef4674a618df583af6d4be34a0e8"},
                     1, true, false, true},
        SequenceCase{{"v1_deep_no_invalidation",
                      "e3b5d948f5462d98190b2823dba5f20a",
                      "94947a36e4ecc58e4e93f069c69cbc70",
                      "d41d8cd98f00b204e9800998ecf8427e", 0,
                      "7da778bd63a31bfa3ec208c6613d1470"},
                     1, false, false, true},
        SequenceCase{{"v2_cow_no_invalidation",
                      "c5ef1cafb97c5a2e66af1f8834b477aa",
                      "280ec9ce10e68121bff0fcd85355af2a",
                      "d41d8cd98f00b204e9800998ecf8427e", 0,
                      "ca1c7e1e8d12ec41b66cb08ab6c09d2d"},
                     2, true, false, true},
        SequenceCase{{"v2_deep_no_invalidation",
                      "c5ef1cafb97c5a2e66af1f8834b477aa",
                      "280ec9ce10e68121bff0fcd85355af2a",
                      "d41d8cd98f00b204e9800998ecf8427e", 0,
                      "bef21ed4799ae41c5a2fb44098c47ae0"},
                     2, false, false, true}),
    [](const ::testing::TestParamInfo<SequenceCase>& info) {
      return std::string(info.param.golden.name);
    });

// ---------------------------------------------------------------------------
// The long runs past the invalidation log's cap (copy-on-write only:
// deep snapshots hold no log position).

class VerifsLongLogTest : public ::testing::TestWithParam<SequenceCase> {};

TEST_P(VerifsLongLogTest, CompactionMatchesPinnedValues) {
  const SequenceCase& c = GetParam();
  Recorder rec;
  if (c.family == 1) {
    RunLongLog<Verifs1>(Verifs1Options{}, rec);
  } else {
    RunLongLog<Verifs2>(Verifs2Options{}, rec);
  }
  ExpectGolden(c.golden, rec);
}

INSTANTIATE_TEST_SUITE_P(
    VerifsFamilies, VerifsLongLogTest,
    ::testing::Values(
        SequenceCase{{"v1_cow", "ca4f56b66c3128a107ed27fc8251aef1",
                      "ba62eefcda91b0b022e2df19504849fe",
                      "4afaa86484c7cbf590e7242cef1e3b76", 13,
                      "88bc537b77ab0e3326245ffa843816b4"},
                     1, true, false, false},
        SequenceCase{{"v2_cow", "ca4f56b66c3128a107ed27fc8251aef1",
                      "7ec108abfe083546be28e313b8c3fb2d",
                      "4afaa86484c7cbf590e7242cef1e3b76", 13,
                      "5cc7acb47b42c5dcf51cd9a3d4322ce9"},
                     2, true, false, false}),
    [](const ::testing::TestParamInfo<SequenceCase>& info) {
      return std::string(info.param.golden.name);
    });

}  // namespace
}  // namespace mcfs::verifs
