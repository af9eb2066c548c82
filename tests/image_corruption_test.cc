// Hostile on-flash and on-disk images fed to mount: a seeded corruption
// sweep over jffs2f logs and xfsf images. Every case must come back from
// Mount with a Status, and a mounted image must answer a walk of its
// tree (readdir, getattr, read, xattrs) and unmount the same way: an
// error is fine, a crash or a hang is not. Recovery probes mount
// arbitrary crash images, so this is the input they face. jffs2f probes
// resume their log replay from a memo (Jffs2Fs::ReplayMemo), so each
// jffs2f case is also mounted through a memo primed with the pristine
// image, and must recover exactly what the fresh mount recovers.
// Labelled crash: scripts/asan.sh -L crash runs it under ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "storage/mtd_device.h"
#include "storage/ram_disk.h"
#include "util/crc32c.h"
#include "util/rng.h"

namespace mcfs::fs {
namespace {

using storage::BlockImage;

void WriteFile(FileSystem& fs, const std::string& path, std::size_t bytes,
               char fill) {
  auto fd = fs.Open(path, kCreate | kWrOnly, 0644);
  ASSERT_TRUE(fd.ok()) << path;
  ASSERT_TRUE(fs.Write(fd.value(), 0, AsBytes(std::string(bytes, fill))).ok());
  ASSERT_TRUE(fs.Close(fd.value()).ok());
}

// Every namespace shape the formats serialize: nested directories,
// multi-block files, an xattr, a hard link, a symlink, a rename and an
// unlink (jffs2f's rename node and tombstone).
void Populate(FileSystem& fs) {
  ASSERT_TRUE(fs.Mkdir("/d", 0755).ok());
  ASSERT_TRUE(fs.Mkdir("/d/e", 0700).ok());
  WriteFile(fs, "/f", 10'000, 'f');
  WriteFile(fs, "/d/g", 300, 'g');
  WriteFile(fs, "/gone", 50, 'x');
  ASSERT_TRUE(fs.SetXattr("/f", "user.k", AsBytes("value")).ok());
  if (fs.Supports(FsFeature::kHardLink)) {
    ASSERT_TRUE(fs.Link("/d/g", "/d/e/link").ok());
  }
  if (fs.Supports(FsFeature::kSymlink)) {
    ASSERT_TRUE(fs.Symlink("/f", "/sym").ok());
  }
  ASSERT_TRUE(fs.Rename("/d/g", "/d/h").ok());
  ASSERT_TRUE(fs.Unlink("/gone").ok());
}

// Walks whatever tree the image mounted as, reading every file, and
// unmounts. Only crashes fail; the depth cap bounds a cyclic directory.
void Walk(FileSystem& fs, const std::string& dir, int depth) {
  auto entries = fs.ReadDir(dir);
  if (!entries.ok() || depth > 4) return;
  for (const DirEntry& entry : entries.value()) {
    if (entry.name == "." || entry.name == "..") continue;
    const std::string path = (dir == "/" ? "" : dir) + "/" + entry.name;
    auto attr = fs.GetAttr(path);
    (void)fs.ListXattr(path);
    (void)fs.GetXattr(path, "user.k");
    if (!attr.ok()) continue;
    if (attr.value().type == FileType::kDirectory) {
      Walk(fs, path, depth + 1);
    } else if (attr.value().type == FileType::kSymlink) {
      (void)fs.ReadLink(path);
    } else {
      auto fd = fs.Open(path, kRdOnly, 0);
      if (!fd.ok()) continue;
      (void)fs.Read(fd.value(), 0, 64 * 1024);
      (void)fs.Close(fd.value());
    }
  }
}

// Mounts `fs`, walks it if it mounted, and counts the outcome.
struct Outcomes {
  int mounted = 0;
  int refused = 0;
};

void WalkAndUnmount(FileSystem& fs) {
  Walk(fs, "/", 0);
  (void)fs.StatFs();
  (void)fs.Unmount();
}

void MountAndWalk(FileSystem& fs, Outcomes* outcomes) {
  if (!fs.Mount().ok()) {
    ++outcomes->refused;
    return;
  }
  ++outcomes->mounted;
  WalkAndUnmount(fs);
}

void PutU32At(BlockImage* image, std::uint64_t offset, std::uint32_t v) {
  ByteWriter w;
  w.PutU32(v);
  image->Write(offset, w.bytes());
}

void FlipBit(BlockImage* image, std::uint64_t offset, int bit) {
  std::uint8_t byte = 0;
  image->Read(offset, std::span<std::uint8_t>(&byte, 1));
  byte ^= static_cast<std::uint8_t>(1u << bit);
  image->Write(offset, ByteView(&byte, 1));
}

// Lengths and counts a hostile image might carry.
constexpr std::uint32_t kHostileValues[] = {
    0xffffffffu, 0x80000000u, 0x7fffffffu, 0x00100000u, 0x00010000u,
    4097u,       4096u,       255u,        1u,          0u};

std::uint32_t HostileValue(Rng& rng) {
  return kHostileValues[rng.Below(std::size(kHostileValues))];
}

// ---------------------------------------------------------------------------
// jffs2f: node header (21 bytes) = magic u32 | type u8 | seq u64 |
// payload_len u32 | crc u32, then the payload, padded to 4 bytes. The CRC
// covers bytes 4..16 and the payload.

constexpr std::uint32_t kNodeMagic = 0x4a324653;  // "J2FS"
constexpr std::size_t kHeader = 21;
constexpr std::size_t kLenField = 13;
constexpr std::size_t kCrcField = 17;
constexpr std::uint64_t kFlashBytes = 256 * 1024;

struct Jffs2Node {
  std::uint64_t offset = 0;
  std::uint32_t payload_len = 0;
};

std::vector<Jffs2Node> ListNodes(const BlockImage& image) {
  std::vector<Jffs2Node> nodes;
  std::uint64_t pos = 0;
  while (pos + kHeader <= image.size()) {
    Bytes header(kHeader);
    image.Read(pos, header);
    ByteReader r(header);
    if (r.GetU32() != kNodeMagic) break;
    r.GetU8();
    r.GetU64();
    const std::uint32_t len = r.GetU32();
    nodes.push_back({pos, len});
    pos += (kHeader + len + 3) / 4 * 4;
  }
  return nodes;
}

// Recomputes a node's CRC, so a corrupt payload reaches the parser.
void ResignNode(BlockImage* image, const Jffs2Node& node,
                std::uint32_t payload_len) {
  if (node.offset + kHeader + payload_len > image->size()) return;
  Bytes header(kHeader);
  image->Read(node.offset, header);
  Bytes payload(payload_len);
  image->Read(node.offset + kHeader, payload);
  const std::uint32_t crc =
      Crc32c(payload, Crc32c(ByteView(header).subspan(4, kCrcField - 4)));
  PutU32At(image, node.offset + kCrcField, crc);
}

BlockImage Jffs2Image() {
  auto mtd = std::make_shared<storage::MtdDevice>("mtd", kFlashBytes, nullptr);
  Jffs2Fs fs(mtd);
  EXPECT_TRUE(fs.Mkfs().ok());
  EXPECT_TRUE(fs.Mount().ok());
  Populate(fs);
  EXPECT_TRUE(fs.Unmount().ok());
  return mtd->SnapshotContents().image;
}

TEST(ImageCorruption, Jffs2MountSurvivesEveryCorruption) {
  const BlockImage pristine = Jffs2Image();
  const std::vector<Jffs2Node> nodes = ListNodes(pristine);
  ASSERT_GE(nodes.size(), 8u);
  const std::uint64_t log_end =
      nodes.back().offset + (kHeader + nodes.back().payload_len + 3) / 4 * 4;
  Outcomes outcomes;
  int memo_misses = 0;  // cases whose replay resumed before the log's end
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    BlockImage image = pristine;
    const Jffs2Node& node = nodes[rng.Below(nodes.size())];
    switch (seed % 6) {
      case 0:  // bit flips anywhere in the log
        for (std::uint64_t i = 0, n = 1 + rng.Below(4); i < n; ++i) {
          FlipBit(&image, rng.Below(log_end), static_cast<int>(rng.Below(8)));
        }
        break;
      case 1: {  // torn tail: the log ends mid-node in erased flash
        const std::uint64_t cut =
            std::min(log_end, node.offset + rng.Below(kHeader + 8));
        image.Write(cut, Bytes(log_end - cut, 0xff));
        break;
      }
      case 2:  // a zeroed node header, the rest of the log intact
        image.Write(node.offset, Bytes(kHeader, 0));
        break;
      case 3: {  // a hostile payload length, signed or not
        const std::uint32_t len = HostileValue(rng);
        PutU32At(&image, node.offset + kLenField, len);
        if (rng.Below(2) == 0) ResignNode(&image, node, len);
        break;
      }
      case 4: {  // a hostile length or count inside a signed payload
        if (node.payload_len < 4) break;
        for (std::uint64_t i = 0, n = 1 + rng.Below(3); i < n; ++i) {
          PutU32At(&image,
                   node.offset + kHeader + rng.Below(node.payload_len - 3),
                   HostileValue(rng));
        }
        ResignNode(&image, node, node.payload_len);
        break;
      }
      default:  // random bytes over a signed payload
        if (node.payload_len == 0) break;
        for (std::uint64_t i = 0, n = 1 + rng.Below(16); i < n; ++i) {
          const std::uint8_t byte = static_cast<std::uint8_t>(rng.Next());
          image.Write(node.offset + kHeader + rng.Below(node.payload_len),
                      ByteView(&byte, 1));
        }
        ResignNode(&image, node, node.payload_len);
        break;
    }
    // A memo primed with the pristine log. Each corruption shortens the
    // prefix the image shares with it (case 0 flips bits anywhere, the
    // memoized nodes included), so the memoized replay resumes at the
    // last node boundary before the damage and re-reads from there.
    auto memo = std::make_shared<Jffs2Fs::ReplayMemo>();
    Jffs2Fs primer(
        std::make_shared<storage::MtdDevice>("primer", pristine, nullptr), {},
        memo);
    ASSERT_TRUE(primer.Mount().ok());
    const std::uint64_t primed_bytes = memo->replayed_bytes();
    Jffs2Fs memoized(
        std::make_shared<storage::MtdDevice>("memoized", image, nullptr), {},
        memo);
    Jffs2Fs fs(std::make_shared<storage::MtdDevice>("probe", std::move(image),
                                                    nullptr));
    const Status resumed = memoized.Mount();
    const Status fresh = fs.Mount();
    ASSERT_EQ(resumed, fresh) << "case " << seed;
    const std::uint64_t resume_point =
        memoized.log_head() - (memo->replayed_bytes() - primed_bytes);
    if (resume_point < log_end) ++memo_misses;
    if (!fresh.ok()) {
      ++outcomes.refused;
      continue;
    }
    ++outcomes.mounted;
    EXPECT_EQ(memoized.ExportMountState().value(),
              fs.ExportMountState().value())
        << "case " << seed;
    WalkAndUnmount(memoized);
    WalkAndUnmount(fs);
  }
  // A damaged log still mounts (replay stops at the damage), so most
  // cases mount; the sweep is only useful if they reach the walk.
  EXPECT_GT(outcomes.mounted, 200);
  EXPECT_GT(memo_misses, 300);
}

// ---------------------------------------------------------------------------
// xfsf: block 0 superblock (magic, block_size, total_blocks, inode_count,
// u32 each), blocks 1-2 the free-extent list (count u32, then start/len
// u32 pairs), then the inode table (256-byte slots), then data.

constexpr std::uint64_t kBlock = 4096;
constexpr std::uint64_t kInodeTable = 3 * kBlock;

BlockImage XfsImage() {
  auto ram =
      std::make_shared<storage::RamDisk>("d", XfsFs::kMinFsBytes, nullptr);
  XfsFs fs(ram);
  EXPECT_TRUE(fs.Mkfs().ok());
  EXPECT_TRUE(fs.Mount().ok());
  Populate(fs);
  EXPECT_TRUE(fs.Unmount().ok());
  return ram->SnapshotContents().image;
}

TEST(ImageCorruption, XfsMountSurvivesEveryCorruption) {
  const BlockImage pristine = XfsImage();
  // Superblock, free list, the 128-inode table (8 blocks) and the first
  // data blocks: everything the populated image keeps metadata in.
  const std::uint64_t metadata_end = kInodeTable + 8 * kBlock + 16 * kBlock;
  Outcomes outcomes;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed);
    BlockImage image = pristine;
    const std::uint64_t slot = kInodeTable + rng.Below(8) * 256;
    switch (seed % 8) {
      case 0:  // bit flips in the metadata
        for (std::uint64_t i = 0, n = 1 + rng.Below(4); i < n; ++i) {
          FlipBit(&image, rng.Below(metadata_end),
                  static_cast<int>(rng.Below(8)));
        }
        break;
      case 1:  // a zeroed superblock
        image.Write(0, Bytes(kBlock, 0));
        break;
      case 2:  // hostile geometry
        PutU32At(&image, 4 * (1 + rng.Below(3)), HostileValue(rng));
        break;
      case 3:  // a hostile free-extent count
        PutU32At(&image, kBlock, HostileValue(rng));
        break;
      case 4:  // hostile free extents
        for (std::uint64_t i = 0, n = 1 + rng.Below(6); i < n; ++i) {
          PutU32At(&image, kBlock + 4 + 4 * rng.Below(16), HostileValue(rng));
        }
        break;
      case 5:  // hostile inode fields: sizes, extent counts, extents
        for (std::uint64_t i = 0, n = 1 + rng.Below(6); i < n; ++i) {
          PutU32At(&image, slot + rng.Below(150), HostileValue(rng));
        }
        break;
      case 6:  // a zeroed metadata or directory block
        image.Write(rng.Below(metadata_end / kBlock) * kBlock,
                    Bytes(kBlock, 0));
        break;
      default: {  // truncation: everything past a random point is lost
        const std::uint64_t cut = rng.Below(metadata_end);
        image.Write(cut, Bytes(metadata_end - cut, 0));
        break;
      }
    }
    XfsFs fs(std::make_shared<storage::RamDisk>("probe", std::move(image),
                                                nullptr));
    MountAndWalk(fs, &outcomes);
  }
  EXPECT_GT(outcomes.mounted, 50);
  EXPECT_GT(outcomes.refused, 30);
}

}  // namespace
}  // namespace mcfs::fs
