#include "fs/xfs/xfsfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace mcfs::fs {

XfsFs::XfsFs(storage::BlockDevicePtr device, XfsOptions options)
    : NamespaceFs(std::move(device), std::move(options)) {}

XfsFs::~XfsFs() {
  if (mounted_) (void)Unmount();
}

std::uint32_t XfsFs::total_blocks() const {
  return static_cast<std::uint32_t>(device_->size_bytes() /
                                    options_.block_size);
}

std::uint32_t XfsFs::data_region_start() const {
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t inode_table_blocks =
      (options_.inode_count + ipb - 1) / ipb;
  return 1 + kFreeListBlocks + inode_table_blocks;
}

// ---------------------------------------------------------------------------
// Raw block I/O

Result<Bytes> XfsFs::ReadBlock(std::uint32_t block_no) {
  Bytes buf(options_.block_size);
  if (Status s = device_->Read(
          static_cast<std::uint64_t>(block_no) * options_.block_size, buf);
      !s.ok()) {
    return s.error();
  }
  return buf;
}

Status XfsFs::WriteBlock(std::uint32_t block_no, ByteView data) {
  assert(data.size() <= options_.block_size);
  Bytes buf(data.begin(), data.end());
  buf.resize(options_.block_size, 0);
  return device_->Write(
      static_cast<std::uint64_t>(block_no) * options_.block_size, buf);
}

// ---------------------------------------------------------------------------
// Free-extent allocator

Result<std::uint32_t> XfsFs::AllocBlock() {
  // First-fit over the sorted free list.
  for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
    if (it->second > 0) {
      const std::uint32_t block = it->first;
      ++it->first;
      --it->second;
      if (it->second == 0) free_extents_.erase(it);
      // New blocks read as zeros.
      const Bytes zero(options_.block_size, 0);
      if (Status s = WriteBlock(block, zero); !s.ok()) return s.error();
      return block;
    }
  }
  return Errno::kENOSPC;
}

Status XfsFs::FreeBlock(std::uint32_t block_no) {
  FreeBlocks(block_no, 1);
  return Status::Ok();
}

void XfsFs::FreeBlocks(std::uint32_t start, std::uint32_t count) {
  if (count == 0) return;
  free_extents_.emplace_back(start, count);
  CoalesceFreeList();
}

void XfsFs::CoalesceFreeList() {
  std::sort(free_extents_.begin(), free_extents_.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merged;
  for (const auto& [start, len] : free_extents_) {
    if (!merged.empty() &&
        merged.back().first + merged.back().second == start) {
      merged.back().second += len;
    } else {
      merged.emplace_back(start, len);
    }
  }
  free_extents_ = std::move(merged);
}

std::uint64_t XfsFs::FreeBlockCount() const {
  std::uint64_t n = 0;
  for (const auto& [start, len] : free_extents_) n += len;
  return n;
}

Status XfsFs::PersistFreeList() {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(free_extents_.size()));
  for (const auto& [start, len] : free_extents_) {
    w.PutU32(start);
    w.PutU32(len);
  }
  if (w.size() > static_cast<std::size_t>(options_.block_size) *
                     kFreeListBlocks) {
    return Errno::kENOSPC;  // pathological fragmentation
  }
  Bytes buf = w.Take();
  buf.resize(static_cast<std::size_t>(options_.block_size) * kFreeListBlocks,
             0);
  for (std::uint32_t b = 0; b < kFreeListBlocks; ++b) {
    ByteView slice(buf.data() + static_cast<std::size_t>(b) *
                                    options_.block_size,
                   options_.block_size);
    if (Status s = WriteBlock(1 + b, slice); !s.ok()) return s;
  }
  return Status::Ok();
}

Status XfsFs::LoadFreeList() {
  Bytes buf;
  buf.reserve(static_cast<std::size_t>(options_.block_size) *
              kFreeListBlocks);
  for (std::uint32_t b = 0; b < kFreeListBlocks; ++b) {
    auto block = ReadBlock(1 + b);
    if (!block.ok()) return block.error();
    buf.insert(buf.end(), block.value().begin(), block.value().end());
  }
  try {
    ByteReader r(buf);
    const std::uint32_t count = r.GetU32();
    free_extents_.clear();
    free_extents_.reserve(std::min<std::uint32_t>(count, 65536));
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t start = r.GetU32();
      const std::uint32_t len = r.GetU32();
      free_extents_.emplace_back(start, len);
    }
    return Status::Ok();
  } catch (const std::out_of_range&) {
    return Errno::kEIO;  // corrupted free-list region
  }
}

// ---------------------------------------------------------------------------
// Inode I/O
//
// Disk image: used u8, type u8, mode u16, nlink u32, uid u32, gid u32,
// size u64, times 3*u64, xattr_block u32, extent_count u8,
// extents 3*u32 each.

Result<XfsFs::Inode> XfsFs::LoadInode(InodeNum ino) {
  if (ino == kInvalidInode || ino > sb_.inode_count) return Errno::kEINVAL;
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 1 + kFreeListBlocks + index / ipb;
  const std::uint32_t offset = (index % ipb) * kInodeDiskSize;

  auto raw = ReadBlock(block);
  if (!raw.ok()) return raw.error();
  ByteReader r(ByteView(raw.value()).subspan(offset, kInodeDiskSize));
  if (r.GetU8() == 0) return Errno::kENOENT;  // unused slot
  Inode inode;
  inode.type = static_cast<FileType>(r.GetU8());
  inode.mode = r.GetU16();
  inode.nlink = r.GetU32();
  inode.uid = r.GetU32();
  inode.gid = r.GetU32();
  inode.size = r.GetU64();
  inode.atime_ns = r.GetU64();
  inode.mtime_ns = r.GetU64();
  inode.ctime_ns = r.GetU64();
  inode.xattr_block = r.GetU32();
  const std::uint8_t extent_count = r.GetU8();
  if (extent_count > kMaxExtents ||
      inode.size > static_cast<std::uint64_t>(sb_.total_blocks) *
                       options_.block_size) {
    return Errno::kEIO;  // corrupted inode image
  }
  inode.extents.resize(extent_count);
  for (auto& e : inode.extents) {
    e.file_block = r.GetU32();
    e.disk_block = r.GetU32();
    e.length = r.GetU32();
  }
  return inode;
}

Status XfsFs::StoreInode(InodeNum ino, const Inode& inode) {
  if (ino == kInvalidInode || ino > sb_.inode_count) return Errno::kEINVAL;
  assert(inode.extents.size() <= kMaxExtents);
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 1 + kFreeListBlocks + index / ipb;
  const std::uint32_t offset = (index % ipb) * kInodeDiskSize;

  auto raw = ReadBlock(block);
  if (!raw.ok()) return raw.error();
  Bytes buf = raw.value();

  ByteWriter w;
  w.PutU8(1);
  w.PutU8(static_cast<std::uint8_t>(inode.type));
  w.PutU16(inode.mode);
  w.PutU32(inode.nlink);
  w.PutU32(inode.uid);
  w.PutU32(inode.gid);
  w.PutU64(inode.size);
  w.PutU64(inode.atime_ns);
  w.PutU64(inode.mtime_ns);
  w.PutU64(inode.ctime_ns);
  w.PutU32(inode.xattr_block);
  w.PutU8(static_cast<std::uint8_t>(inode.extents.size()));
  for (const auto& e : inode.extents) {
    w.PutU32(e.file_block);
    w.PutU32(e.disk_block);
    w.PutU32(e.length);
  }
  assert(w.size() <= kInodeDiskSize);
  std::memset(buf.data() + offset, 0, kInodeDiskSize);
  std::memcpy(buf.data() + offset, w.bytes().data(), w.size());
  return WriteBlock(block, buf);
}

Result<InodeNum> XfsFs::AllocInode() {
  for (std::uint32_t i = 0; i < sb_.inode_count; ++i) {
    if (!inode_used_[i]) {
      inode_used_[i] = true;
      return static_cast<InodeNum>(i + 1);
    }
  }
  return Errno::kENOSPC;
}

Status XfsFs::FreeInode(InodeNum ino) {
  inode_used_[ino - 1] = false;
  return Status::Ok();
}

Status XfsFs::DropInode(Inode& inode, InodeNum ino) {
  if (Status s = FreeFileBlocks(inode, 0); !s.ok()) return s;
  if (inode.xattr_block != 0) {
    FreeBlocks(inode.xattr_block, 1);
    inode.xattr_block = 0;
  }
  (void)FreeInode(ino);
  // Mark the slot unused on disk.
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 1 + kFreeListBlocks + index / ipb;
  auto raw = ReadBlock(block);
  if (!raw.ok()) return raw.error();
  Bytes buf = raw.value();
  std::memset(buf.data() + (index % ipb) * kInodeDiskSize, 0,
              kInodeDiskSize);
  return WriteBlock(block, buf);
}

// ---------------------------------------------------------------------------
// Extent mapping

Result<std::uint32_t> XfsFs::MapBlock(const Inode& inode,
                                      std::uint64_t index) {
  const auto fb = static_cast<std::uint32_t>(index);
  for (const auto& e : inode.extents) {
    if (fb >= e.file_block && fb < e.file_block + e.length) {
      return e.disk_block + (fb - e.file_block);
    }
  }
  return 0u;
}

Result<std::uint32_t> XfsFs::MapBlockAlloc(Inode& inode,
                                           std::uint64_t index) {
  if (index > 0xffffffffULL) return Errno::kEFBIG;
  const auto fb = static_cast<std::uint32_t>(index);
  if (auto existing = MapBlock(inode, fb); existing.value() != 0) {
    return existing;
  }
  auto alloc = AllocBlock();
  if (!alloc.ok()) return alloc.error();
  const std::uint32_t db = alloc.value();

  // Try to merge into an adjacent extent (logically and physically
  // contiguous) — this is what keeps sequential writes at one extent.
  for (auto& e : inode.extents) {
    if (e.file_block + e.length == fb && e.disk_block + e.length == db) {
      ++e.length;
      return db;
    }
    if (fb + 1 == e.file_block && db + 1 == e.disk_block) {
      --e.file_block;
      --e.disk_block;
      ++e.length;
      return db;
    }
  }
  if (inode.extents.size() >= kMaxExtents) {
    FreeBlocks(db, 1);
    return Errno::kEFBIG;
  }
  inode.extents.push_back({fb, db, 1});
  std::sort(inode.extents.begin(), inode.extents.end(),
            [](const XfsExtent& a, const XfsExtent& b) {
              return a.file_block < b.file_block;
            });
  return db;
}

// No byte limit: LoadInode rejects a size past the device, and
// MapBlockAlloc a file block past 2^32.
std::uint64_t XfsFs::max_file_bytes() const {
  return std::numeric_limits<std::uint64_t>::max();
}

Status XfsFs::FreeFileBlocks(Inode& inode, std::uint64_t from_block) {
  const auto from_fb = static_cast<std::uint32_t>(from_block);
  std::vector<XfsExtent> kept;
  for (const auto& e : inode.extents) {
    if (e.file_block >= from_fb) {
      FreeBlocks(e.disk_block, e.length);
    } else if (e.file_block + e.length <= from_fb) {
      kept.push_back(e);
    } else {
      // Split: keep the head, free the tail.
      const std::uint32_t keep_len = from_fb - e.file_block;
      FreeBlocks(e.disk_block + keep_len, e.length - keep_len);
      kept.push_back({e.file_block, e.disk_block, keep_len});
    }
  }
  inode.extents = std::move(kept);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Lifecycle

Status XfsFs::Mkfs() {
  if (mounted_) return Errno::kEBUSY;
  if (device_->size_bytes() < kMinFsBytes) return Errno::kEINVAL;
  const std::uint32_t blocks = total_blocks();
  if (blocks <= data_region_start()) return Errno::kENOSPC;

  sb_ = Superblock{kMagic, options_.block_size, blocks,
                   options_.inode_count};
  inode_used_.assign(options_.inode_count, false);
  free_extents_ = {{data_region_start(), blocks - data_region_start()}};

  // Zero the inode table.
  const Bytes zero(options_.block_size, 0);
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t table_blocks = (options_.inode_count + ipb - 1) / ipb;
  for (std::uint32_t b = 0; b < table_blocks; ++b) {
    if (Status s = WriteBlock(1 + kFreeListBlocks + b, zero); !s.ok()) {
      return s;
    }
  }

  // Root inode (no lost+found: xfsf trait).
  mounted_ = true;
  Inode root;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.nlink = 2;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  root.atime_ns = root.mtime_ns = root.ctime_ns = NowNs();
  inode_used_[kRootIno - 1] = true;
  if (Status s = StoreDir(kRootIno, root, {}); !s.ok()) {
    mounted_ = false;
    return s;
  }
  if (Status s = StoreInode(kRootIno, root); !s.ok()) {
    mounted_ = false;
    return s;
  }

  // Superblock.
  ByteWriter w;
  w.PutU32(sb_.magic);
  w.PutU32(sb_.block_size);
  w.PutU32(sb_.total_blocks);
  w.PutU32(sb_.inode_count);
  if (Status s = WriteBlock(0, w.bytes()); !s.ok()) {
    mounted_ = false;
    return s;
  }
  Status persist = PersistFreeList();
  mounted_ = false;
  open_files_.clear();
  if (!persist.ok()) return persist;
  return device_->Flush();
}

Status XfsFs::Mount() {
  if (mounted_) return Errno::kEBUSY;
  // Log-recovery / AG scan: walk the device checking for torn writes
  // before trusting any structure (real XFS replays its log and reads
  // every AG header here; this is why XFS [re]mounts are expensive).
  // Nothing here looks at the bytes, so the scan only pays the reads.
  for (std::uint64_t offset = 0;
       offset + kMountScanChunk <= device_->size_bytes();
       offset += kMountScanChunk) {
    if (Status s = device_->Scan(offset, kMountScanChunk); !s.ok()) return s;
  }
  auto raw = ReadBlock(0);
  if (!raw.ok()) return raw.error();
  ByteReader r(raw.value());
  Superblock sb;
  sb.magic = r.GetU32();
  sb.block_size = r.GetU32();
  sb.total_blocks = r.GetU32();
  sb.inode_count = r.GetU32();
  // The geometry must be the one Mkfs writes for this device and these
  // options: the inode map below is sized by inode_count and read one
  // table block per inode, so a hostile count would allocate and read
  // without bound.
  if (sb.magic != kMagic || sb.block_size != options_.block_size ||
      sb.total_blocks != total_blocks() ||
      sb.inode_count != options_.inode_count) {
    return Errno::kEINVAL;
  }
  sb_ = sb;
  if (Status s = LoadFreeList(); !s.ok()) return s;

  // Rebuild the in-memory inode-used map by scanning the table.
  inode_used_.assign(sb_.inode_count, false);
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  for (std::uint32_t i = 0; i < sb_.inode_count; ++i) {
    const std::uint32_t block = 1 + kFreeListBlocks + i / ipb;
    auto table_block = ReadBlock(block);
    if (!table_block.ok()) return table_block.error();
    inode_used_[i] =
        table_block.value()[(i % ipb) * kInodeDiskSize] != 0;
  }
  mounted_ = true;
  return Status::Ok();
}

Status XfsFs::Unmount() {
  if (!mounted_) return Errno::kEINVAL;
  if (Status s = PersistFreeList(); !s.ok()) return s;
  if (Status s = device_->Flush(); !s.ok()) return s;
  mounted_ = false;
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mount-state capture (paper §7 future work)

Result<Bytes> XfsFs::ExportMountState() const {
  if (!mounted_) return Errno::kEINVAL;
  ByteWriter w;
  w.PutU32(sb_.magic);
  w.PutU32(sb_.block_size);
  w.PutU32(sb_.total_blocks);
  w.PutU32(sb_.inode_count);
  w.PutU32(static_cast<std::uint32_t>(free_extents_.size()));
  for (const auto& [start, len] : free_extents_) {
    w.PutU32(start);
    w.PutU32(len);
  }
  w.PutU32(static_cast<std::uint32_t>(inode_used_.size()));
  for (bool used : inode_used_) w.PutU8(used ? 1 : 0);
  w.PutU64(op_counter_);
  return w.Take();
}

Status XfsFs::ImportMountState(ByteView image) {
  if (!mounted_) return Errno::kEINVAL;
  // Parse and check the whole blob into locals first, so a hostile or
  // truncated one changes nothing; counts are checked against this
  // file system's geometry and the bytes left before anything is sized
  // by them.
  Superblock sb;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> free_extents;
  std::vector<bool> inode_used;
  std::uint64_t op_counter = 0;
  try {
    ByteReader r(image);
    sb.magic = r.GetU32();
    sb.block_size = r.GetU32();
    sb.total_blocks = r.GetU32();
    sb.inode_count = r.GetU32();
    if (sb.magic != kMagic || sb.block_size != options_.block_size ||
        sb.total_blocks != total_blocks() ||
        sb.inode_count != options_.inode_count) {
      return Errno::kEINVAL;
    }
    const std::uint32_t extents = r.GetU32();
    if (extents > r.remaining() / (2 * sizeof(std::uint32_t))) {
      return Errno::kEINVAL;
    }
    free_extents.reserve(extents);
    for (std::uint32_t i = 0; i < extents; ++i) {
      const std::uint32_t start = r.GetU32();
      const std::uint32_t len = r.GetU32();
      free_extents.emplace_back(start, len);
    }
    const std::uint32_t inodes = r.GetU32();
    if (inodes != sb.inode_count) return Errno::kEINVAL;
    inode_used.assign(inodes, false);
    for (std::uint32_t i = 0; i < inodes; ++i) {
      inode_used[i] = r.GetU8() != 0;
    }
    op_counter = r.GetU64();
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
  sb_ = sb;
  free_extents_ = std::move(free_extents);
  inode_used_ = std::move(inode_used);
  op_counter_ = op_counter;
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Attribute view

InodeAttr XfsFs::ToAttr(InodeNum ino, const Inode& inode) const {
  InodeAttr attr;
  attr.ino = ino;
  attr.type = inode.type;
  attr.mode = inode.mode;
  attr.nlink = inode.nlink;
  attr.uid = inode.uid;
  attr.gid = inode.gid;
  // xfsf trait: directory size reflects the live entry payload, not
  // whole blocks — this diverges from ext2f/ext4f (paper §3.4).
  attr.size = inode.size;
  attr.atime_ns = inode.atime_ns;
  attr.mtime_ns = inode.mtime_ns;
  attr.ctime_ns = inode.ctime_ns;
  return attr;
}

std::uint64_t XfsFs::CountAllocatedBlocks(const Inode& inode) {
  std::uint64_t blocks = 0;
  for (const auto& e : inode.extents) blocks += e.length;
  if (inode.xattr_block != 0) ++blocks;
  return blocks;
}

void XfsFs::OrderDirEntries(std::vector<DirEntry>& entries) const {
  // xfsf trait: getdents returns entries in reverse-insertion order — a
  // different (equally POSIX-legal) ordering than ext2f/ext4f, which is
  // why MCFS sorts getdents output before comparing (paper §3.4).
  std::reverse(entries.begin(), entries.end());
}

// ---------------------------------------------------------------------------
// Sync and capacity

Status XfsFs::Fsync(FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  if (!open_files_.contains(fh)) return Errno::kEBADF;
  if (Status s = PersistFreeList(); !s.ok()) return s;
  return device_->Flush();
}

Result<StatVfs> XfsFs::StatFs() {
  if (!mounted_) return Errno::kEINVAL;
  StatVfs out;
  out.block_size = options_.block_size;
  out.total_bytes =
      static_cast<std::uint64_t>(sb_.total_blocks - data_region_start()) *
      options_.block_size;
  out.free_bytes = FreeBlockCount() * options_.block_size;
  out.total_inodes = sb_.inode_count;
  std::uint64_t free_inodes = 0;
  for (bool used : inode_used_) {
    if (!used) ++free_inodes;
  }
  out.free_inodes = free_inodes;
  return out;
}

}  // namespace mcfs::fs
