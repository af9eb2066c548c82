// POSIX-semantics conformance suite, written once against the FileSystem
// interface and instantiated for every implementation in the library:
// ext2f, ext4f, xfsf, jffs2f, VeriFS1, VeriFS2 — and the two VeriFS
// variants again through the full FUSE channel (which additionally
// exercises the wire marshaling of every operation).
//
// MCFS's whole premise is that all file systems agree on POSIX-specified
// behaviour; this suite pins that behaviour implementation by
// implementation so that cross-FS discrepancies found by the checker are
// real differences, not harness artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "spec/spec_fs.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::fs {
namespace {

// A constructed file system plus whatever owns its storage/plumbing.
struct Fixture {
  FileSystemPtr fs;
  std::vector<std::shared_ptr<void>> keepalive;
};

Fixture MakeFixture(const std::string& kind) {
  Fixture fixture;
  if (kind == "ext2f") {
    auto dev = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
    fixture.fs = std::make_shared<Ext2Fs>(dev);
    fixture.keepalive.push_back(dev);
  } else if (kind == "ext4f") {
    auto dev = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
    fixture.fs = std::make_shared<Ext4Fs>(dev);
    fixture.keepalive.push_back(dev);
  } else if (kind == "xfsf") {
    auto dev =
        std::make_shared<storage::RamDisk>("d", 16 * 1024 * 1024, nullptr);
    fixture.fs = std::make_shared<XfsFs>(dev);
    fixture.keepalive.push_back(dev);
  } else if (kind == "jffs2f") {
    auto mtd =
        std::make_shared<storage::MtdDevice>("mtd", 1024 * 1024, nullptr);
    fixture.fs = std::make_shared<Jffs2Fs>(mtd);
    fixture.keepalive.push_back(mtd);
  } else if (kind == "verifs1") {
    fixture.fs = std::make_shared<verifs::Verifs1>();
  } else if (kind == "verifs2") {
    fixture.fs = std::make_shared<verifs::Verifs2>();
  } else if (kind == "specfs") {
    fixture.fs = std::make_shared<spec::SpecFs>();
  } else if (kind == "verifs1-fuse" || kind == "verifs2-fuse") {
    auto channel = std::make_shared<fuse::FuseChannel>(nullptr);
    FileSystemPtr hosted;
    if (kind == "verifs1-fuse") {
      hosted = std::make_shared<verifs::Verifs1>();
    } else {
      hosted = std::make_shared<verifs::Verifs2>();
    }
    auto host = std::make_shared<fuse::FuseHost>(hosted, channel.get());
    fixture.fs = std::make_shared<fuse::FuseClientFs>(channel.get());
    fixture.keepalive = {channel, hosted, host};
  }
  return fixture;
}

class PosixSuite : public testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    fixture_ = MakeFixture(GetParam());
    ASSERT_NE(fixture_.fs, nullptr);
    ASSERT_TRUE(fixture_.fs->Mkfs().ok());
    ASSERT_TRUE(fixture_.fs->Mount().ok());
  }

  void TearDown() override {
    if (fixture_.fs != nullptr && fixture_.fs->IsMounted()) {
      EXPECT_TRUE(fixture_.fs->Unmount().ok());
    }
  }

  FileSystem& fs() { return *fixture_.fs; }

  bool Has(FsFeature feature) { return fs().Supports(feature); }

  // Writes `data` to `path`, creating it (asserts success).
  void WriteFile(const std::string& path, std::string_view data,
                 std::uint64_t offset = 0) {
    auto fd = fs().Open(path, kCreate | kWrOnly, 0644);
    ASSERT_TRUE(fd.ok()) << path << ": " << ErrnoName(fd.error());
    auto n = fs().Write(fd.value(), offset, AsBytes(data));
    ASSERT_TRUE(n.ok()) << ErrnoName(n.error());
    ASSERT_EQ(n.value(), data.size());
    ASSERT_TRUE(fs().Close(fd.value()).ok());
  }

  // Reads up to `size` bytes at `offset` (asserts the open succeeds).
  Bytes ReadFile(const std::string& path, std::uint64_t offset = 0,
                 std::uint64_t size = 1 << 16) {
    auto fd = fs().Open(path, kRdOnly, 0);
    EXPECT_TRUE(fd.ok()) << path << ": " << ErrnoName(fd.error());
    if (!fd.ok()) return {};
    auto data = fs().Read(fd.value(), offset, size);
    EXPECT_TRUE(data.ok()) << ErrnoName(data.error());
    EXPECT_TRUE(fs().Close(fd.value()).ok());
    return data.ok() ? data.value() : Bytes{};
  }

  std::vector<std::string> ListNames(const std::string& path) {
    auto entries = fs().ReadDir(path);
    EXPECT_TRUE(entries.ok()) << ErrnoName(entries.error());
    std::vector<std::string> names;
    if (entries.ok()) {
      for (const auto& e : entries.value()) {
        // Filter FS-created special folders, as MCFS's exception list
        // does (ext4f's lost+found, paper §3.4).
        if (e.name == "lost+found") continue;
        names.push_back(e.name);
      }
      std::sort(names.begin(), names.end());
    }
    return names;
  }

  Fixture fixture_;
};

// ---------------------------------------------------------------------------
// Lifecycle

TEST_P(PosixSuite, RootIsADirectory) {
  auto attr = fs().GetAttr("/");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().type, FileType::kDirectory);
  EXPECT_GE(attr.value().nlink, 2u);
}

TEST_P(PosixSuite, DoubleMountIsEbusy) {
  EXPECT_EQ(fs().Mount().error(), Errno::kEBUSY);
}

TEST_P(PosixSuite, UnmountThenOperationsFail) {
  ASSERT_TRUE(fs().Unmount().ok());
  EXPECT_FALSE(fs().GetAttr("/").ok());
  EXPECT_EQ(fs().Unmount().error(), Errno::kEINVAL);
  ASSERT_TRUE(fs().Mount().ok());
}

TEST_P(PosixSuite, StatePersistsAcrossRemount) {
  WriteFile("/keep", "persistent-data");
  ASSERT_TRUE(fs().Mkdir("/kept-dir", 0755).ok());
  ASSERT_TRUE(fs().Unmount().ok());
  ASSERT_TRUE(fs().Mount().ok());
  EXPECT_EQ(AsString(ReadFile("/keep")), "persistent-data");
  auto attr = fs().GetAttr("/kept-dir");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().type, FileType::kDirectory);
}

TEST_P(PosixSuite, HandlesDieWithUnmount) {
  auto fd = fs().Open("/f", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs().Unmount().ok());
  ASSERT_TRUE(fs().Mount().ok());
  EXPECT_EQ(fs().Close(fd.value()).error(), Errno::kEBADF);
}

// ---------------------------------------------------------------------------
// Create / open semantics

TEST_P(PosixSuite, CreateAndStat) {
  WriteFile("/f", "x");
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().type, FileType::kRegular);
  EXPECT_EQ(attr.value().size, 1u);
  EXPECT_EQ(attr.value().mode, 0644);
  EXPECT_EQ(attr.value().nlink, 1u);
}

TEST_P(PosixSuite, OpenExclRejectsExisting) {
  WriteFile("/f", "x");
  auto fd = fs().Open("/f", kCreate | kExcl | kWrOnly, 0644);
  EXPECT_EQ(fd.error(), Errno::kEEXIST);
}

TEST_P(PosixSuite, OpenMissingWithoutCreateIsEnoent) {
  EXPECT_EQ(fs().Open("/missing", kRdOnly, 0).error(), Errno::kENOENT);
}

TEST_P(PosixSuite, OpenTruncEmptiesFile) {
  WriteFile("/f", "0123456789");
  auto fd = fs().Open("/f", kWrOnly | kTrunc, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs().Close(fd.value()).ok());
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 0u);
}

TEST_P(PosixSuite, OpenDirectoryForWriteIsEisdir) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Open("/d", kWrOnly, 0).error(), Errno::kEISDIR);
}

TEST_P(PosixSuite, CreateInMissingParentIsEnoent) {
  EXPECT_EQ(fs().Open("/no-dir/f", kCreate | kWrOnly, 0644).error(),
            Errno::kENOENT);
}

TEST_P(PosixSuite, FileAsIntermediateComponentIsEnotdir) {
  WriteFile("/f", "x");
  EXPECT_EQ(fs().GetAttr("/f/child").error(), Errno::kENOTDIR);
  EXPECT_EQ(fs().Open("/f/child", kCreate | kWrOnly, 0644).error(),
            Errno::kENOTDIR);
}

TEST_P(PosixSuite, ReadOnWriteOnlyDescriptorIsEbadf) {
  WriteFile("/f", "data");
  auto fd = fs().Open("/f", kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fs().Read(fd.value(), 0, 4).error(), Errno::kEBADF);
  ASSERT_TRUE(fs().Close(fd.value()).ok());
}

TEST_P(PosixSuite, WriteOnReadOnlyDescriptorIsEbadf) {
  WriteFile("/f", "data");
  auto fd = fs().Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fs().Write(fd.value(), 0, AsBytes("x")).error(), Errno::kEBADF);
  ASSERT_TRUE(fs().Close(fd.value()).ok());
}

TEST_P(PosixSuite, CloseInvalidHandleIsEbadf) {
  EXPECT_EQ(fs().Close(999999).error(), Errno::kEBADF);
}

// ---------------------------------------------------------------------------
// Read / write data semantics

TEST_P(PosixSuite, WriteReadRoundTrip) {
  WriteFile("/f", "hello, file system");
  EXPECT_EQ(AsString(ReadFile("/f")), "hello, file system");
}

TEST_P(PosixSuite, ReadAtOffset) {
  WriteFile("/f", "0123456789");
  EXPECT_EQ(AsString(ReadFile("/f", 4, 3)), "456");
}

TEST_P(PosixSuite, ReadPastEofIsEmpty) {
  WriteFile("/f", "abc");
  EXPECT_TRUE(ReadFile("/f", 100, 10).empty());
}

TEST_P(PosixSuite, ReadIsTruncatedAtEof) {
  WriteFile("/f", "abcdef");
  EXPECT_EQ(ReadFile("/f", 4, 100).size(), 2u);
}

TEST_P(PosixSuite, OverwriteMiddle) {
  WriteFile("/f", "aaaaaaaaaa");
  auto fd = fs().Open("/f", kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs().Write(fd.value(), 3, AsBytes("XYZ")).ok());
  ASSERT_TRUE(fs().Close(fd.value()).ok());
  EXPECT_EQ(AsString(ReadFile("/f")), "aaaXYZaaaa");
}

TEST_P(PosixSuite, WritePastEofCreatesZeroFilledHole) {
  WriteFile("/f", "abc");
  auto fd = fs().Open("/f", kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs().Write(fd.value(), 10, AsBytes("tail")).ok());
  ASSERT_TRUE(fs().Close(fd.value()).ok());
  const Bytes data = ReadFile("/f");
  ASSERT_EQ(data.size(), 14u);
  EXPECT_EQ(AsString(ByteView(data).subspan(0, 3)), "abc");
  for (std::size_t i = 3; i < 10; ++i) {
    EXPECT_EQ(data[i], 0) << "hole byte " << i << " must read as zero";
  }
  EXPECT_EQ(AsString(ByteView(data).subspan(10)), "tail");
}

TEST_P(PosixSuite, AppendFlagIgnoresOffset) {
  WriteFile("/f", "base");
  auto fd = fs().Open("/f", kWrOnly | kAppend, 0);
  ASSERT_TRUE(fd.ok());
  // Offset 0 must be ignored: O_APPEND always writes at EOF.
  ASSERT_TRUE(fs().Write(fd.value(), 0, AsBytes("+tail")).ok());
  ASSERT_TRUE(fs().Close(fd.value()).ok());
  EXPECT_EQ(AsString(ReadFile("/f")), "base+tail");
}

TEST_P(PosixSuite, LargeMultiBlockFile) {
  // Cross several blocks on every implementation (1 KB ext2f blocks,
  // 4 KB xfsf blocks).
  std::string big(20 * 1024, 'Q');
  for (std::size_t i = 0; i < big.size(); i += 577) big[i] = 'R';
  WriteFile("/big", big);
  const Bytes data = ReadFile("/big");
  EXPECT_EQ(AsString(data), big);
  auto attr = fs().GetAttr("/big");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, big.size());
}

TEST_P(PosixSuite, MtimeAdvancesOnWrite) {
  WriteFile("/f", "v1");
  auto before = fs().GetAttr("/f");
  ASSERT_TRUE(before.ok());
  WriteFile("/f", "v2");
  auto after = fs().GetAttr("/f");
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after.value().mtime_ns, before.value().mtime_ns);
}

// ---------------------------------------------------------------------------
// Truncate semantics

TEST_P(PosixSuite, TruncateShrinksAndData) {
  WriteFile("/f", "0123456789");
  ASSERT_TRUE(fs().Truncate("/f", 4).ok());
  EXPECT_EQ(AsString(ReadFile("/f")), "0123");
}

TEST_P(PosixSuite, TruncateGrowZeroFills) {
  WriteFile("/f", "ab");
  ASSERT_TRUE(fs().Truncate("/f", 6).ok());
  const Bytes data = ReadFile("/f");
  ASSERT_EQ(data.size(), 6u);
  EXPECT_EQ(data[0], 'a');
  EXPECT_EQ(data[1], 'b');
  for (std::size_t i = 2; i < 6; ++i) EXPECT_EQ(data[i], 0);
}

TEST_P(PosixSuite, TruncateShrinkThenGrowReadsZeros) {
  // The exact scenario of VeriFS1's first historical bug (paper §6):
  // shrink below old content, grow back, the reclaimed region must be
  // zeros — not the old bytes.
  WriteFile("/f", "SECRETSECRET");
  ASSERT_TRUE(fs().Truncate("/f", 3).ok());
  ASSERT_TRUE(fs().Truncate("/f", 12).ok());
  const Bytes data = ReadFile("/f");
  ASSERT_EQ(data.size(), 12u);
  EXPECT_EQ(AsString(ByteView(data).subspan(0, 3)), "SEC");
  for (std::size_t i = 3; i < 12; ++i) {
    EXPECT_EQ(data[i], 0) << "stale byte leaked at offset " << i;
  }
}

TEST_P(PosixSuite, TruncateDirectoryIsEisdir) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Truncate("/d", 0).error(), Errno::kEISDIR);
}

TEST_P(PosixSuite, TruncateMissingIsEnoent) {
  EXPECT_EQ(fs().Truncate("/missing", 0).error(), Errno::kENOENT);
}

// ---------------------------------------------------------------------------
// Directory semantics

TEST_P(PosixSuite, MkdirRmdirRoundTrip) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  auto attr = fs().GetAttr("/d");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().type, FileType::kDirectory);
  ASSERT_TRUE(fs().Rmdir("/d").ok());
  EXPECT_EQ(fs().GetAttr("/d").error(), Errno::kENOENT);
}

TEST_P(PosixSuite, MkdirExistingIsEexist) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Mkdir("/d", 0755).error(), Errno::kEEXIST);
  WriteFile("/f", "x");
  EXPECT_EQ(fs().Mkdir("/f", 0755).error(), Errno::kEEXIST);
}

TEST_P(PosixSuite, RmdirNonEmptyIsEnotempty) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  WriteFile("/d/f", "x");
  EXPECT_EQ(fs().Rmdir("/d").error(), Errno::kENOTEMPTY);
  ASSERT_TRUE(fs().Unlink("/d/f").ok());
  EXPECT_TRUE(fs().Rmdir("/d").ok());
}

TEST_P(PosixSuite, RmdirOnFileIsEnotdir) {
  WriteFile("/f", "x");
  EXPECT_EQ(fs().Rmdir("/f").error(), Errno::kENOTDIR);
}

TEST_P(PosixSuite, UnlinkOnDirectoryIsEisdir) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Unlink("/d").error(), Errno::kEISDIR);
}

TEST_P(PosixSuite, RmdirRootIsRefused) {
  EXPECT_FALSE(fs().Rmdir("/").ok());
}

TEST_P(PosixSuite, ReadDirListsEntries) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  WriteFile("/a", "1");
  WriteFile("/b", "2");
  auto names = ListNames("/");
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "d"}));
}

TEST_P(PosixSuite, ReadDirTypesAreCorrect) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  WriteFile("/f", "x");
  auto entries = fs().ReadDir("/");
  ASSERT_TRUE(entries.ok());
  for (const auto& e : entries.value()) {
    if (e.name == "d") {
      EXPECT_EQ(e.type, FileType::kDirectory);
    }
    if (e.name == "f") {
      EXPECT_EQ(e.type, FileType::kRegular);
    }
  }
}

TEST_P(PosixSuite, ReadDirOnFileIsEnotdir) {
  WriteFile("/f", "x");
  EXPECT_EQ(fs().ReadDir("/f").error(), Errno::kENOTDIR);
}

TEST_P(PosixSuite, NestedDirectories) {
  ASSERT_TRUE(fs().Mkdir("/a", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/a/b/c", 0755).ok());
  WriteFile("/a/b/c/deep", "bottom");
  EXPECT_EQ(AsString(ReadFile("/a/b/c/deep")), "bottom");
  // Parents can't be removed while children exist.
  EXPECT_EQ(fs().Rmdir("/a").error(), Errno::kENOTEMPTY);
  EXPECT_EQ(fs().Rmdir("/a/b").error(), Errno::kENOTEMPTY);
}

TEST_P(PosixSuite, DirectoryNlinkCountsSubdirs) {
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  auto base = fs().GetAttr("/d");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base.value().nlink, 2u);
  ASSERT_TRUE(fs().Mkdir("/d/sub1", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/d/sub2", 0755).ok());
  WriteFile("/d/file", "x");  // files do not bump the parent's nlink
  auto after = fs().GetAttr("/d");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().nlink, 4u);
  ASSERT_TRUE(fs().Rmdir("/d/sub1").ok());
  auto final_attr = fs().GetAttr("/d");
  ASSERT_TRUE(final_attr.ok());
  EXPECT_EQ(final_attr.value().nlink, 3u);
}

// ---------------------------------------------------------------------------
// Unlink semantics

TEST_P(PosixSuite, UnlinkRemovesFile) {
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().Unlink("/f").ok());
  EXPECT_EQ(fs().GetAttr("/f").error(), Errno::kENOENT);
  EXPECT_EQ(fs().Unlink("/f").error(), Errno::kENOENT);
}

TEST_P(PosixSuite, RecreateAfterUnlinkIsFresh) {
  WriteFile("/f", "old-content");
  ASSERT_TRUE(fs().Unlink("/f").ok());
  WriteFile("/f", "new");
  EXPECT_EQ(AsString(ReadFile("/f")), "new");
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 3u);
}

// ---------------------------------------------------------------------------
// Attributes

TEST_P(PosixSuite, ChmodChangesMode) {
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().Chmod("/f", 0600).ok());
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().mode, 0600);
}

TEST_P(PosixSuite, ChownAsRoot) {
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().Chown("/f", 1000, 1000).ok());
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().uid, 1000u);
  EXPECT_EQ(attr.value().gid, 1000u);
}

TEST_P(PosixSuite, StatFsFreeSpaceShrinksOnWrite) {
  auto before = fs().StatFs();
  ASSERT_TRUE(before.ok());
  WriteFile("/f", std::string(16 * 1024, 'z'));
  auto after = fs().StatFs();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().free_bytes, before.value().free_bytes);
}

// ---------------------------------------------------------------------------
// Path validation

TEST_P(PosixSuite, InvalidPathsAreRejected) {
  EXPECT_FALSE(fs().GetAttr("relative/path").ok());
  EXPECT_FALSE(fs().GetAttr("").ok());
  EXPECT_FALSE(fs().Mkdir("no-slash", 0755).ok());
}

TEST_P(PosixSuite, OverlongNameIsEnametoolong) {
  const std::string long_name = "/" + std::string(300, 'n');
  EXPECT_EQ(fs().Mkdir(long_name, 0755).error(), Errno::kENAMETOOLONG);
}

// ---------------------------------------------------------------------------
// Optional: rename (all but VeriFS1)

TEST_P(PosixSuite, RenameFile) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  WriteFile("/from", "payload");
  ASSERT_TRUE(fs().Rename("/from", "/to").ok());
  EXPECT_EQ(fs().GetAttr("/from").error(), Errno::kENOENT);
  EXPECT_EQ(AsString(ReadFile("/to")), "payload");
}

TEST_P(PosixSuite, RenameReplacesExistingFile) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  WriteFile("/from", "new");
  WriteFile("/to", "old");
  ASSERT_TRUE(fs().Rename("/from", "/to").ok());
  EXPECT_EQ(AsString(ReadFile("/to")), "new");
}

TEST_P(PosixSuite, RenameDirectoryAcrossParents) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  ASSERT_TRUE(fs().Mkdir("/src", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/dst", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/src/dir", 0755).ok());
  WriteFile("/src/dir/f", "inside");
  ASSERT_TRUE(fs().Rename("/src/dir", "/dst/dir").ok());
  EXPECT_EQ(AsString(ReadFile("/dst/dir/f")), "inside");
  EXPECT_EQ(fs().GetAttr("/src/dir").error(), Errno::kENOENT);
  // nlink bookkeeping followed the move.
  auto src = fs().GetAttr("/src");
  auto dst = fs().GetAttr("/dst");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(src.value().nlink, 2u);
  EXPECT_EQ(dst.value().nlink, 3u);
}

TEST_P(PosixSuite, RenameIntoOwnSubtreeIsEinval) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/d/sub", 0755).ok());
  EXPECT_EQ(fs().Rename("/d", "/d/sub/d2").error(), Errno::kEINVAL);
}

TEST_P(PosixSuite, RenameOntoNonEmptyDirIsEnotempty) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  ASSERT_TRUE(fs().Mkdir("/a", 0755).ok());
  ASSERT_TRUE(fs().Mkdir("/b", 0755).ok());
  WriteFile("/b/f", "x");
  EXPECT_EQ(fs().Rename("/a", "/b").error(), Errno::kENOTEMPTY);
}

TEST_P(PosixSuite, RenameFileOntoDirIsEisdir) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Rename("/f", "/d").error(), Errno::kEISDIR);
}

TEST_P(PosixSuite, RenameDirOntoFileIsEnotdir) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  WriteFile("/f", "x");
  EXPECT_EQ(fs().Rename("/d", "/f").error(), Errno::kENOTDIR);
}

TEST_P(PosixSuite, RenameMissingSourceIsEnoent) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  EXPECT_EQ(fs().Rename("/missing", "/to").error(), Errno::kENOENT);
}

TEST_P(PosixSuite, RenameToSelfIsNoop) {
  if (!Has(FsFeature::kRename)) GTEST_SKIP() << "rename unsupported";
  WriteFile("/f", "stay");
  ASSERT_TRUE(fs().Rename("/f", "/f").ok());
  EXPECT_EQ(AsString(ReadFile("/f")), "stay");
}

// ---------------------------------------------------------------------------
// Optional: hard links

TEST_P(PosixSuite, HardLinkSharesData) {
  if (!Has(FsFeature::kHardLink)) GTEST_SKIP() << "link unsupported";
  WriteFile("/f", "shared");
  ASSERT_TRUE(fs().Link("/f", "/l").ok());
  EXPECT_EQ(AsString(ReadFile("/l")), "shared");
  auto attr = fs().GetAttr("/f");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().nlink, 2u);

  // Writing through one name is visible through the other.
  WriteFile("/l", "edited");
  EXPECT_EQ(AsString(ReadFile("/f")), "edited");
}

TEST_P(PosixSuite, UnlinkOneNameKeepsTheOther) {
  if (!Has(FsFeature::kHardLink)) GTEST_SKIP() << "link unsupported";
  WriteFile("/f", "alive");
  ASSERT_TRUE(fs().Link("/f", "/l").ok());
  ASSERT_TRUE(fs().Unlink("/f").ok());
  EXPECT_EQ(AsString(ReadFile("/l")), "alive");
  auto attr = fs().GetAttr("/l");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().nlink, 1u);
}

TEST_P(PosixSuite, LinkDirectoryIsEperm) {
  if (!Has(FsFeature::kHardLink)) GTEST_SKIP() << "link unsupported";
  ASSERT_TRUE(fs().Mkdir("/d", 0755).ok());
  EXPECT_EQ(fs().Link("/d", "/l").error(), Errno::kEPERM);
}

TEST_P(PosixSuite, LinkOverExistingIsEexist) {
  if (!Has(FsFeature::kHardLink)) GTEST_SKIP() << "link unsupported";
  WriteFile("/f", "x");
  WriteFile("/g", "y");
  EXPECT_EQ(fs().Link("/f", "/g").error(), Errno::kEEXIST);
}

// ---------------------------------------------------------------------------
// Optional: symlinks

TEST_P(PosixSuite, SymlinkReadLinkRoundTrip) {
  if (!Has(FsFeature::kSymlink)) GTEST_SKIP() << "symlink unsupported";
  ASSERT_TRUE(fs().Symlink("/target", "/sl").ok());
  auto target = fs().ReadLink("/sl");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "/target");
  auto attr = fs().GetAttr("/sl");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().type, FileType::kSymlink);
}

TEST_P(PosixSuite, ReadLinkOnRegularFileIsEinval) {
  if (!Has(FsFeature::kSymlink)) GTEST_SKIP() << "symlink unsupported";
  WriteFile("/f", "x");
  EXPECT_EQ(fs().ReadLink("/f").error(), Errno::kEINVAL);
}

TEST_P(PosixSuite, SymlinkTargetNeedNotExist) {
  if (!Has(FsFeature::kSymlink)) GTEST_SKIP() << "symlink unsupported";
  ASSERT_TRUE(fs().Symlink("/nonexistent/deep/path", "/dangling").ok());
  auto target = fs().ReadLink("/dangling");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "/nonexistent/deep/path");
}

// ---------------------------------------------------------------------------
// Optional: access / xattrs

TEST_P(PosixSuite, AccessExistingAndMissing) {
  if (!Has(FsFeature::kAccess)) GTEST_SKIP() << "access unsupported";
  WriteFile("/f", "x");
  EXPECT_TRUE(fs().Access("/f", kFOk).ok());
  EXPECT_EQ(fs().Access("/missing", kFOk).error(), Errno::kENOENT);
}

TEST_P(PosixSuite, XattrRoundTrip) {
  if (!Has(FsFeature::kXattr)) GTEST_SKIP() << "xattr unsupported";
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().SetXattr("/f", "user.color", AsBytes("blue")).ok());
  ASSERT_TRUE(fs().SetXattr("/f", "user.shape", AsBytes("round")).ok());

  auto value = fs().GetXattr("/f", "user.color");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsString(value.value()), "blue");

  auto names = fs().ListXattr("/f");
  ASSERT_TRUE(names.ok());
  std::sort(names.value().begin(), names.value().end());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"user.color", "user.shape"}));

  ASSERT_TRUE(fs().RemoveXattr("/f", "user.color").ok());
  EXPECT_EQ(fs().GetXattr("/f", "user.color").error(), Errno::kENODATA);
  EXPECT_EQ(fs().RemoveXattr("/f", "user.color").error(), Errno::kENODATA);
}

TEST_P(PosixSuite, XattrOverwrite) {
  if (!Has(FsFeature::kXattr)) GTEST_SKIP() << "xattr unsupported";
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().SetXattr("/f", "user.v", AsBytes("one")).ok());
  ASSERT_TRUE(fs().SetXattr("/f", "user.v", AsBytes("two")).ok());
  auto value = fs().GetXattr("/f", "user.v");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsString(value.value()), "two");
}

TEST_P(PosixSuite, XattrsPersistAcrossRemount) {
  if (!Has(FsFeature::kXattr)) GTEST_SKIP() << "xattr unsupported";
  WriteFile("/f", "x");
  ASSERT_TRUE(fs().SetXattr("/f", "user.keep", AsBytes("v")).ok());
  ASSERT_TRUE(fs().Unmount().ok());
  ASSERT_TRUE(fs().Mount().ok());
  auto value = fs().GetXattr("/f", "user.keep");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(AsString(value.value()), "v");
}

INSTANTIATE_TEST_SUITE_P(
    AllFileSystems, PosixSuite,
    testing::Values("ext2f", "ext4f", "xfsf", "jffs2f", "verifs1",
                    "verifs2", "specfs", "verifs1-fuse", "verifs2-fuse"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace mcfs::fs
