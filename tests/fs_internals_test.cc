// Implementation-specific behaviour of the four kernel-style file
// systems: the cross-FS *differences* the paper's evaluation leans on
// (directory-size reporting, special folders, usable capacity, minimum
// sizes), plus each implementation's own machinery (ext4f journal
// recovery, xfsf extent allocator, jffs2f log replay and GC) and
// permission enforcement under a non-root identity.
#include <gtest/gtest.h>

#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "storage/ram_disk.h"

namespace mcfs::fs {
namespace {

storage::BlockDevicePtr MakeDisk(std::uint64_t bytes) {
  return std::make_shared<storage::RamDisk>("d", bytes, nullptr);
}

void WriteAll(FileSystem& fs, const std::string& path,
              std::string_view data) {
  auto fd = fs.Open(path, kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok()) << ErrnoName(fd.error());
  ASSERT_TRUE(fs.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());
}

// ---------------------------------------------------------------------------
// Trait: directory-size reporting (paper §3.4 false positive #1)

TEST(FsTraits, Ext2ReportsBlockMultipleDirSizes) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
  auto attr = fs.GetAttr("/d");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size % 1024, 0u);
  EXPECT_GE(attr.value().size, 1024u);
}

TEST(FsTraits, XfsReportsEntryBasedDirSizes) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
  auto empty = fs.GetAttr("/d");
  ASSERT_TRUE(empty.ok());
  WriteAll(fs, "/d/child", "x");
  auto with_child = fs.GetAttr("/d");
  ASSERT_TRUE(with_child.ok());
  // Entry-based: grows with entries, and is NOT a 4 KB multiple.
  EXPECT_GT(with_child.value().size, empty.value().size);
  EXPECT_NE(with_child.value().size % 4096, 0u);
}

// ---------------------------------------------------------------------------
// Trait: special folders (paper §3.4 false positive #2)

TEST(FsTraits, Ext4CreatesLostAndFoundButExt2DoesNot) {
  {
    auto dev = MakeDisk(256 * 1024);
    Ext4Fs ext4(dev);
    ASSERT_TRUE(ext4.Mkfs().ok());
    ASSERT_TRUE(ext4.Mount().ok());
    auto attr = ext4.GetAttr("/lost+found");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr.value().type, FileType::kDirectory);
    EXPECT_EQ(attr.value().mode, 0700);
  }
  {
    auto dev = MakeDisk(256 * 1024);
    Ext2Fs ext2(dev);
    ASSERT_TRUE(ext2.Mkfs().ok());
    ASSERT_TRUE(ext2.Mount().ok());
    EXPECT_EQ(ext2.GetAttr("/lost+found").error(), Errno::kENOENT);
  }
}

TEST(FsTraits, XfsHasNoSpecialFolders) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto entries = fs.ReadDir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries.value().empty());
}

// ---------------------------------------------------------------------------
// Trait: capacity (paper §3.4 false positive #3) and minimum sizes

TEST(FsTraits, XfsRejectsSmallDevices) {
  // "16MB for XFS, which allows a larger minimum file-system size" (§6).
  auto small = MakeDisk(256 * 1024);
  XfsFs fs(small);
  EXPECT_EQ(fs.Mkfs().error(), Errno::kEINVAL);

  auto big = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs ok_fs(big);
  EXPECT_TRUE(ok_fs.Mkfs().ok());
}

TEST(FsTraits, Ext4JournalReducesUsableCapacityVsExt2) {
  auto dev2 = MakeDisk(256 * 1024);
  Ext2Fs ext2(dev2);
  ASSERT_TRUE(ext2.Mkfs().ok());
  ASSERT_TRUE(ext2.Mount().ok());
  auto sv2 = ext2.StatFs();
  ASSERT_TRUE(sv2.ok());

  auto dev4 = MakeDisk(256 * 1024);
  Ext4Fs ext4(dev4);
  ASSERT_TRUE(ext4.Mkfs().ok());
  ASSERT_TRUE(ext4.Mount().ok());
  auto sv4 = ext4.StatFs();
  ASSERT_TRUE(sv4.ok());

  // Same device size, different usable capacity — the root cause of the
  // near-full ENOSPC false positive.
  EXPECT_LT(sv4.value().free_bytes, sv2.value().free_bytes);
}

TEST(FsTraits, Ext2EnospcWhenFull) {
  auto dev = MakeDisk(64 * 1024);  // deliberately tiny
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/hog", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  const Bytes chunk(1024, 0xaa);
  Errno last = Errno::kOk;
  for (std::uint64_t i = 0; i < 256; ++i) {
    auto n = fs.Write(fd.value(), i * chunk.size(), chunk);
    if (!n.ok()) {
      last = n.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
  ASSERT_TRUE(fs.Close(fd.value()).ok());

  // Freeing space makes writes possible again.
  ASSERT_TRUE(fs.Unlink("/hog").ok());
  WriteAll(fs, "/small", "fits now");
}

TEST(FsTraits, Ext2EnospcWhenInodesExhausted) {
  Ext2Options options;
  options.inode_count = 8;  // root + 7
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  Errno last = Errno::kOk;
  for (int i = 0; i < 10; ++i) {
    Status s = fs.Mkdir("/d" + std::to_string(i), 0755);
    if (!s.ok()) {
      last = s.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
}

// ---------------------------------------------------------------------------
// ext2f: on-disk persistence details

TEST(Ext2Internals, SparseFileAccounting) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  // Write one byte far into the file: the hole must not consume blocks.
  auto fd = fs.Open("/sparse", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs.Write(fd.value(), 10 * 1024, AsBytes("x")).ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());

  auto attr = fs.GetAttr("/sparse");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 10 * 1024 + 1);
  // st_blocks counts allocated 512-byte sectors: far fewer than size/512.
  EXPECT_LT(attr.value().blocks, attr.value().size / 512);
}

TEST(Ext2Internals, PersistsThroughRawDeviceBytes) {
  auto dev = MakeDisk(256 * 1024);
  {
    Ext2Fs fs(dev);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/f", "raw-bytes-round-trip");
    ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
    ASSERT_TRUE(fs.Unmount().ok());
  }
  // A brand-new FS object over the same device sees the same contents:
  // everything really lives in the device bytes.
  Ext2Fs fresh(dev);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "raw-bytes-round-trip");
  ASSERT_TRUE(fresh.Close(fd.value()).ok());
  EXPECT_TRUE(fresh.GetAttr("/d").ok());
}

TEST(Ext2Internals, DirtyBlocksStayInCacheUntilFlush) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  const std::uint64_t writes_before = dev->stats().writes;
  WriteAll(fs, "/f", "buffered");
  // The write-back cache holds the dirty blocks; the device is untouched.
  EXPECT_EQ(dev->stats().writes, writes_before);
  EXPECT_GT(fs.dirty_block_count(), 0u);
  ASSERT_TRUE(fs.Unmount().ok());
  EXPECT_GT(dev->stats().writes, writes_before);
}

TEST(Ext2Internals, MountRejectsUnformattedDevice) {
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev);
  EXPECT_EQ(fs.Mount().error(), Errno::kEINVAL);
}

TEST(Ext2Internals, DeviceIoErrorSurfacesAsEio) {
  auto ram = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  Ext2Fs fs(ram);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "data");
  ram->InjectIoErrors(100);
  EXPECT_EQ(fs.Unmount().error(), Errno::kEIO);  // flush fails
}

// ---------------------------------------------------------------------------
// ext4f: journal commit + crash recovery

TEST(Ext4Journal, CommitsTransactionsOnFlush) {
  auto dev = MakeDisk(256 * 1024);
  Ext4Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "journaled");
  ASSERT_TRUE(fs.Unmount().ok());
  EXPECT_GE(fs.journal_commits(), 1u);
}

TEST(Ext4Journal, RecoversCommittedButUncheckpointedTransaction) {
  auto dev = MakeDisk(256 * 1024);
  auto fs = std::make_shared<Ext4Fs>(dev);
  ASSERT_TRUE(fs->Mkfs().ok());
  ASSERT_TRUE(fs->Mount().ok());
  WriteAll(*fs, "/durable", "must-survive");
  auto fd = fs->Open("/durable", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());

  // Crash between journal commit and in-place checkpoint.
  fs->SimulateCrashAfterNextJournalCommit();
  EXPECT_EQ(fs->Fsync(fd.value()).error(), Errno::kEIO);  // "crash"
  fs->CrashNow();

  // A fresh mount must replay the journal and recover the write.
  Ext4Fs recovered(dev);
  ASSERT_TRUE(recovered.Mount().ok());
  EXPECT_TRUE(recovered.replayed_journal_on_last_mount());
  auto rfd = recovered.Open("/durable", kRdOnly, 0);
  ASSERT_TRUE(rfd.ok());
  auto data = recovered.Read(rfd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "must-survive");
}

TEST(Ext4Journal, CleanMountDoesNotReplay) {
  auto dev = MakeDisk(256 * 1024);
  Ext4Fs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "x");
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  EXPECT_FALSE(fs.replayed_journal_on_last_mount());
}

// ---------------------------------------------------------------------------
// xfsf: extent allocator

TEST(XfsInternals, SequentialWritesStayAtOneExtentWorth) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // 64 KB sequential write = 16 blocks; extent merging must keep the
  // per-inode map within kMaxExtents (a fragmented map would EFBIG).
  WriteAll(fs, "/seq", std::string(64 * 1024, 'e'));
  auto attr = fs.GetAttr("/seq");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 64u * 1024);
}

TEST(XfsInternals, FreeListCoalescesAfterDelete) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  XfsFs fs(dev);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  const std::size_t initial_extents = fs.free_extent_count();
  WriteAll(fs, "/a", std::string(8 * 1024, 'a'));
  WriteAll(fs, "/b", std::string(8 * 1024, 'b'));
  ASSERT_TRUE(fs.Unlink("/a").ok());
  ASSERT_TRUE(fs.Unlink("/b").ok());
  // Adjacent frees coalesce back toward the original single free extent.
  EXPECT_LE(fs.free_extent_count(), initial_extents + 1);
}

TEST(XfsInternals, PersistsThroughRawDeviceBytes) {
  auto dev = MakeDisk(XfsFs::kMinFsBytes);
  {
    XfsFs fs(dev);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/persist", "xfs-bytes");
    ASSERT_TRUE(fs.Unmount().ok());
  }
  XfsFs fresh(dev);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/persist", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "xfs-bytes");
}

// Regression: Mount sized its inode-used map from the superblock's
// inode_count and read one table block per inode, so an image claiming
// 0xffffffff inodes made it allocate 512 MB and issue ~65,000 reads
// before failing. A superblock whose geometry is not the one Mkfs writes
// for this device and these options is now rejected before anything is
// allocated: the device serves the mount scan and the superblock read,
// nothing more.
TEST(XfsInternals, HostileSuperblockGeometryIsRejectedBeforeReadingOn) {
  constexpr std::uint64_t kTotalBlocksField = 8;
  constexpr std::uint64_t kInodeCountField = 12;
  for (const auto& [field, value] :
       {std::pair{kInodeCountField, 0xffffffffu},
        std::pair{kInodeCountField, XfsOptions{}.inode_count + 1},
        std::pair{kTotalBlocksField, 0xffffffffu},
        std::pair{kTotalBlocksField, 4095u}}) {
    auto ram = std::make_shared<storage::RamDisk>("d", XfsFs::kMinFsBytes,
                                                  nullptr);
    {
      XfsFs fs(ram);
      ASSERT_TRUE(fs.Mkfs().ok());
    }
    ByteWriter w;
    w.PutU32(value);
    ASSERT_TRUE(ram->Write(field, w.bytes()).ok());
    const std::uint64_t reads_before = ram->stats().reads;
    XfsFs fresh(ram);
    EXPECT_EQ(fresh.Mount().error(), Errno::kEINVAL)
        << "field " << field << " = " << value;
    const std::uint64_t scan_reads =
        XfsFs::kMinFsBytes / XfsFs::kMountScanChunk;
    EXPECT_LE(ram->stats().reads - reads_before, scan_reads + 1)
        << "field " << field << " = " << value;
  }
}

// ---------------------------------------------------------------------------
// jffs2f: log-structured behaviour on flash

std::shared_ptr<storage::MtdDevice> MakeMtd(std::uint64_t bytes) {
  return std::make_shared<storage::MtdDevice>("mtd", bytes, nullptr);
}

TEST(Jffs2Internals, LogReplayRebuildsState) {
  auto mtd = MakeMtd(1024 * 1024);
  {
    Jffs2Fs fs(mtd);
    ASSERT_TRUE(fs.Mkfs().ok());
    ASSERT_TRUE(fs.Mount().ok());
    WriteAll(fs, "/f", "log-structured");
    ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
    ASSERT_TRUE(fs.Unmount().ok());
  }
  Jffs2Fs fresh(mtd);
  ASSERT_TRUE(fresh.Mount().ok());
  auto fd = fresh.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fresh.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "log-structured");
  EXPECT_TRUE(fresh.GetAttr("/d").ok());
}

TEST(Jffs2Internals, LatestNodeWinsAfterOverwrites) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "version-1");
  WriteAll(fs, "/f", "version-2-final");
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/f", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "version-2-final");
}

TEST(Jffs2Internals, DeletionSurvivesReplay) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/gone", "x");
  ASSERT_TRUE(fs.Unlink("/gone").ok());
  ASSERT_TRUE(fs.Unmount().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // The tombstone + deletion dirent must win over the creation records.
  EXPECT_EQ(fs.GetAttr("/gone").error(), Errno::kENOENT);
}

TEST(Jffs2Internals, GarbageCollectionReclaimsSpace) {
  auto mtd = MakeMtd(256 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // Repeatedly rewrite one file: the log fills with dead nodes until GC
  // compacts them away.
  const std::string payload(8 * 1024, 'g');
  for (int i = 0; i < 100; ++i) {
    WriteAll(fs, "/churn", payload);
  }
  EXPECT_GE(fs.gc_runs(), 1u);
  // Live data is intact after GC.
  auto fd = fs.Open("/churn", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, payload.size());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), payload);
  // GC erases blocks: wear is visible on the erase counters.
  EXPECT_GT(fs.mtd().erase_count(0), 1u);
}

TEST(Jffs2Internals, EnospcWhenLiveDataExceedsFlash) {
  auto mtd = MakeMtd(64 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  auto fd = fs.Open("/big", kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  const Bytes chunk(8 * 1024, 0xbb);
  Errno last = Errno::kOk;
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto n = fs.Write(fd.value(), i * chunk.size(), chunk);
    if (!n.ok()) {
      last = n.error();
      break;
    }
  }
  EXPECT_EQ(last, Errno::kENOSPC);
}

TEST(Jffs2Internals, TornTailIsIgnoredOnReplay) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/good", "intact");
  const std::uint64_t head = fs.log_head();
  ASSERT_TRUE(fs.Unmount().ok());

  // Simulate a torn write: valid-looking magic with garbage after it.
  Bytes garbage = {0x53, 0x46, 0x32, 0x4a};  // kNodeMagic little-endian
  garbage.resize(40, 0x00);
  ASSERT_TRUE(mtd->Program(head, garbage).ok());

  ASSERT_TRUE(fs.Mount().ok());  // replay must stop at the torn node
  // ...and append over it: an all-zero header (type, seq, len) with a
  // zero CRC must not check, or the head moves past the torn node.
  EXPECT_EQ(fs.log_head(), head);
  auto fd = fs.Open("/good", kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  auto data = fs.Read(fd.value(), 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(AsString(data.value()), "intact");
}

TEST(Jffs2Internals, CorruptSeqFieldEndsReplay) {
  auto mtd = MakeMtd(1024 * 1024);
  Jffs2Fs fs(mtd);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/good", "intact");  // created 0644
  const std::uint64_t last_node = fs.log_head();
  ASSERT_TRUE(fs.Chmod("/good", 0600).ok());  // exactly one inode node
  ASSERT_GT(fs.log_head(), last_node);
  ASSERT_TRUE(fs.Unmount().ok());

  // Clear one bit (flash can only clear bits) of the last node's seq,
  // which follows its magic u32 and type u8.
  const std::uint64_t seq_lo = last_node + 5;
  std::uint8_t byte = 0;
  ASSERT_TRUE(mtd->Read(seq_lo, std::span<std::uint8_t>(&byte, 1)).ok());
  ASSERT_NE(byte, 0);
  const Bytes flipped = {static_cast<std::uint8_t>(byte & (byte - 1))};
  ASSERT_TRUE(mtd->Program(seq_lo, flipped).ok());

  ASSERT_TRUE(fs.Mount().ok());  // replay must stop before that node
  EXPECT_EQ(fs.log_head(), last_node);
  auto attr = fs.GetAttr("/good");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().mode & 0777, 0644u);
}

// ---------------------------------------------------------------------------
// Permission enforcement with a non-root identity

TEST(Permissions, NonRootIsDeniedByModeBits) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());

  WriteAll(fs, "/mine", "owned by 1000");
  ASSERT_TRUE(fs.Chmod("/mine", 0400).ok());  // owner read-only
  EXPECT_EQ(fs.Open("/mine", kWrOnly, 0).error(), Errno::kEACCES);
  auto fd = fs.Open("/mine", kRdOnly, 0);
  EXPECT_TRUE(fd.ok());
  if (fd.ok()) {
    EXPECT_TRUE(fs.Close(fd.value()).ok());
  }

  // access() agrees.
  EXPECT_TRUE(fs.Access("/mine", kROk).ok());
  EXPECT_EQ(fs.Access("/mine", kWOk).error(), Errno::kEACCES);
}

TEST(Permissions, SearchBitRequiredToTraverse) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/locked", 0755).ok());
  WriteAll(fs, "/locked/f", "hidden");
  ASSERT_TRUE(fs.Chmod("/locked", 0600).ok());  // no +x: no traversal
  EXPECT_EQ(fs.GetAttr("/locked/f").error(), Errno::kEACCES);
}

TEST(Permissions, ChownRequiresRoot) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  WriteAll(fs, "/f", "x");
  EXPECT_EQ(fs.Chown("/f", 0, 0).error(), Errno::kEPERM);
}

TEST(Permissions, ChmodRequiresOwnership) {
  Ext2Options options;
  options.identity = Identity{1000, 1000};
  auto dev = MakeDisk(256 * 1024);
  Ext2Fs fs(dev, options);
  ASSERT_TRUE(fs.Mkfs().ok());
  ASSERT_TRUE(fs.Mount().ok());
  // Root (mkfs identity is 1000 here, so make the file, then pretend a
  // different owner via a root-identity FS on the same device).
  WriteAll(fs, "/f", "x");
  ASSERT_TRUE(fs.Unmount().ok());

  Ext2Options root_options;  // uid 0
  Ext2Fs root_fs(dev, root_options);
  ASSERT_TRUE(root_fs.Mount().ok());
  ASSERT_TRUE(root_fs.Chown("/f", 555, 555).ok());
  ASSERT_TRUE(root_fs.Unmount().ok());

  ASSERT_TRUE(fs.Mount().ok());
  EXPECT_EQ(fs.Chmod("/f", 0777).error(), Errno::kEPERM);
}

}  // namespace
}  // namespace mcfs::fs
