#include "fs/xfs/xfsfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "fs/path.h"

namespace mcfs::fs {

XfsFs::XfsFs(storage::BlockDevicePtr device, XfsOptions options)
    : device_(std::move(device)), options_(std::move(options)) {}

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

Result<Bytes> XfsFs::ReadBlockRaw(std::uint32_t block_no) {
  Bytes buf(options_.block_size);
  if (Status s = device_->Read(
          static_cast<std::uint64_t>(block_no) * options_.block_size, buf);
      !s.ok()) {
    return s.error();
  }
  return buf;
}

Status XfsFs::WriteBlockRaw(std::uint32_t block_no, ByteView data) {
  assert(data.size() <= options_.block_size);
  Bytes buf(data.begin(), data.end());
  buf.resize(options_.block_size, 0);
  return device_->Write(
      static_cast<std::uint64_t>(block_no) * options_.block_size, buf);
}

// ---------------------------------------------------------------------------
// Free-extent allocator

Result<std::uint32_t> XfsFs::AllocBlocks(std::uint32_t count) {
  // First-fit over the sorted free list.
  for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
    if (it->second >= count) {
      const std::uint32_t start = it->first;
      it->first += count;
      it->second -= count;
      if (it->second == 0) free_extents_.erase(it);
      // New blocks read as zeros.
      const Bytes zero(options_.block_size, 0);
      for (std::uint32_t b = 0; b < count; ++b) {
        if (Status s = WriteBlockRaw(start + b, zero); !s.ok()) {
          return s.error();
        }
      }
      return start;
    }
  }
  return Errno::kENOSPC;
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
    if (Status s = WriteBlockRaw(1 + b, slice); !s.ok()) return s;
  }
  return Status::Ok();
}

Status XfsFs::LoadFreeList() {
  Bytes buf;
  buf.reserve(static_cast<std::size_t>(options_.block_size) *
              kFreeListBlocks);
  for (std::uint32_t b = 0; b < kFreeListBlocks; ++b) {
    auto block = ReadBlockRaw(1 + b);
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

  auto raw = ReadBlockRaw(block);
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

  auto raw = ReadBlockRaw(block);
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
  return WriteBlockRaw(block, buf);
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

void XfsFs::FreeInodeSlot(InodeNum ino) {
  inode_used_[ino - 1] = false;
}

// ---------------------------------------------------------------------------
// Extent mapping

std::uint32_t XfsFs::MapBlock(const Inode& inode, std::uint32_t fb) const {
  for (const auto& e : inode.extents) {
    if (fb >= e.file_block && fb < e.file_block + e.length) {
      return e.disk_block + (fb - e.file_block);
    }
  }
  return 0;
}

Result<std::uint32_t> XfsFs::MapBlockAlloc(Inode& inode, std::uint32_t fb) {
  if (std::uint32_t existing = MapBlock(inode, fb); existing != 0) {
    return existing;
  }
  auto alloc = AllocBlocks(1);
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
            [](const Extent& a, const Extent& b) {
              return a.file_block < b.file_block;
            });
  return db;
}

Status XfsFs::FreeFileBlocksFrom(Inode& inode, std::uint32_t from_fb) {
  std::vector<Extent> kept;
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
// Data I/O

Result<Bytes> XfsFs::ReadInodeData(const Inode& inode, std::uint64_t offset,
                                   std::uint64_t size) {
  if (offset >= inode.size) return Bytes{};
  const std::uint64_t n = std::min(size, inode.size - offset);
  Bytes out(n, 0);
  const std::uint32_t bs = options_.block_size;
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const auto fb = static_cast<std::uint32_t>(pos / bs);
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take = std::min<std::uint64_t>(bs - in_block, n - done);
    if (std::uint32_t db = MapBlock(inode, fb); db != 0) {
      auto raw = ReadBlockRaw(db);
      if (!raw.ok()) return raw.error();
      std::memcpy(out.data() + done, raw.value().data() + in_block, take);
    }
    done += take;
  }
  return out;
}

Result<std::uint64_t> XfsFs::WriteInodeData(Inode& inode,
                                            std::uint64_t offset,
                                            ByteView data) {
  const std::uint32_t bs = options_.block_size;
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    if (pos / bs > 0xffffffffULL) return Errno::kEFBIG;
    const auto fb = static_cast<std::uint32_t>(pos / bs);
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take =
        std::min<std::uint64_t>(bs - in_block, data.size() - done);
    auto mapped = MapBlockAlloc(inode, fb);
    if (!mapped.ok()) return mapped.error();
    auto raw = ReadBlockRaw(mapped.value());
    if (!raw.ok()) return raw.error();
    Bytes b = raw.value();
    std::memcpy(b.data() + in_block, data.data() + done, take);
    if (Status s = WriteBlockRaw(mapped.value(), b); !s.ok()) {
      return s.error();
    }
    done += take;
  }
  if (offset + data.size() > inode.size) inode.size = offset + data.size();
  return data.size();
}

Status XfsFs::TruncateInode(Inode& inode, std::uint64_t new_size) {
  const std::uint32_t bs = options_.block_size;
  if (new_size < inode.size) {
    const auto keep_blocks =
        static_cast<std::uint32_t>((new_size + bs - 1) / bs);
    if (Status s = FreeFileBlocksFrom(inode, keep_blocks); !s.ok()) return s;
    if (new_size % bs != 0) {
      if (std::uint32_t db = MapBlock(
              inode, static_cast<std::uint32_t>(new_size / bs));
          db != 0) {
        auto raw = ReadBlockRaw(db);
        if (!raw.ok()) return raw.error();
        Bytes b = raw.value();
        std::memset(b.data() + new_size % bs, 0, bs - new_size % bs);
        if (Status s = WriteBlockRaw(db, b); !s.ok()) return s;
      }
    }
  }
  inode.size = new_size;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Directories

Result<std::vector<XfsFs::RawDirEntry>> XfsFs::LoadDir(InodeNum ino) {
  auto inode = LoadInode(ino);
  if (!inode.ok()) return inode.error();
  if (inode.value().type != FileType::kDirectory) return Errno::kENOTDIR;
  auto raw = ReadInodeData(inode.value(), 0, inode.value().size);
  if (!raw.ok()) return raw.error();
  if (raw.value().empty()) return std::vector<RawDirEntry>{};
  try {
    ByteReader r(raw.value());
    const std::uint32_t count = r.GetU32();
    std::vector<RawDirEntry> entries;
    entries.reserve(std::min<std::uint32_t>(count, 4096));
    for (std::uint32_t i = 0; i < count; ++i) {
      RawDirEntry e;
      e.ino = r.GetU64();
      e.type = static_cast<FileType>(r.GetU8());
      e.name = r.GetString();
      entries.push_back(std::move(e));
    }
    return entries;
  } catch (const std::out_of_range&) {
    return Errno::kEIO;  // corrupted directory payload
  }
}

Status XfsFs::StoreDir(InodeNum ino, Inode& inode,
                       const std::vector<RawDirEntry>& entries) {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.PutU64(e.ino);
    w.PutU8(static_cast<std::uint8_t>(e.type));
    w.PutString(e.name);
  }
  if (Status s = TruncateInode(inode, 0); !s.ok()) return s;
  auto written = WriteInodeData(inode, 0, w.bytes());
  if (!written.ok()) return written.error();
  inode.mtime_ns = NowNs();
  return StoreInode(ino, inode);
}

// ---------------------------------------------------------------------------
// Path resolution

Result<XfsFs::Resolved> XfsFs::ResolvePath(const std::string& path) {
  if (!mounted_) return Errno::kEINVAL;
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();

  InodeNum ino = kRootIno;
  auto inode = LoadInode(ino);
  if (!inode.ok()) return inode.error();

  for (const auto& comp : split.value()) {
    if (inode.value().type != FileType::kDirectory) return Errno::kENOTDIR;
    if (!PermissionGranted(ToAttr(ino, inode.value()), options_.identity,
                           kXOk)) {
      return Errno::kEACCES;
    }
    auto entries = LoadDir(ino);
    if (!entries.ok()) return entries.error();
    InodeNum next = kInvalidInode;
    for (const auto& e : entries.value()) {
      if (e.name == comp) {
        next = e.ino;
        break;
      }
    }
    if (next == kInvalidInode) return Errno::kENOENT;
    ino = next;
    inode = LoadInode(ino);
    if (!inode.ok()) return inode.error();
  }
  return Resolved{ino, inode.value()};
}

Result<XfsFs::ResolvedParent> XfsFs::ResolveParent(const std::string& path) {
  if (!mounted_) return Errno::kEINVAL;
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;

  const std::string name = split.value().back();
  auto parent = ResolvePath(ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (parent.value().inode.type != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ResolvedParent{parent.value().ino, parent.value().inode, name};
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
    if (Status s = WriteBlockRaw(1 + kFreeListBlocks + b, zero); !s.ok()) {
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
  if (Status s = WriteBlockRaw(0, w.bytes()); !s.ok()) {
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
  if (const std::uint64_t chunk = options_.mount_scan_chunk; chunk > 0) {
    for (std::uint64_t offset = 0; offset + chunk <= device_->size_bytes();
         offset += chunk) {
      if (Status s = device_->Scan(offset, chunk); !s.ok()) return s;
    }
  }
  auto raw = ReadBlockRaw(0);
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
    auto table_block = ReadBlockRaw(block);
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
  std::uint64_t blocks = 0;
  for (const auto& e : inode.extents) blocks += e.length;
  if (inode.xattr_block != 0) ++blocks;
  attr.blocks = blocks * (options_.block_size / 512);
  return attr;
}

// ---------------------------------------------------------------------------
// Namespace ops (structure parallels ext2f; mechanics differ underneath)

Result<InodeAttr> XfsFs::GetAttr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  return ToAttr(res.value().ino, res.value().inode);
}

Result<InodeNum> XfsFs::CreateNode(const std::string& path, FileType type,
                                   Mode mode,
                                   const std::string& symlink_target) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == parent.value().name) return Errno::kEEXIST;
  }

  auto ino = AllocInode();
  if (!ino.ok()) return ino.error();

  Inode inode;
  inode.type = type;
  inode.mode = static_cast<Mode>(mode & kModeMask);
  inode.nlink = (type == FileType::kDirectory) ? 2 : 1;
  inode.uid = options_.identity.uid;
  inode.gid = options_.identity.gid;
  inode.atime_ns = inode.mtime_ns = inode.ctime_ns = NowNs();

  if (type == FileType::kSymlink) {
    auto written = WriteInodeData(inode, 0, AsBytes(symlink_target));
    if (!written.ok()) {
      FreeInodeSlot(ino.value());
      return written.error();
    }
  }
  if (Status s = StoreInode(ino.value(), inode); !s.ok()) {
    FreeInodeSlot(ino.value());
    return s.error();
  }

  auto updated = entries.value();
  updated.push_back({parent.value().name, ino.value(), type});
  Inode parent_inode = parent.value().parent;
  if (type == FileType::kDirectory) ++parent_inode.nlink;
  if (Status s = StoreDir(parent.value().parent_ino, parent_inode, updated);
      !s.ok()) {
    FreeInodeSlot(ino.value());
    return s.error();
  }
  return ino.value();
}

Status XfsFs::Mkdir(const std::string& path, Mode mode) {
  auto ino = CreateNode(path, FileType::kDirectory, mode, "");
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Status XfsFs::DropInodeStorage(Inode& inode, InodeNum ino) {
  if (Status s = FreeFileBlocksFrom(inode, 0); !s.ok()) return s;
  if (inode.xattr_block != 0) {
    FreeBlocks(inode.xattr_block, 1);
    inode.xattr_block = 0;
  }
  FreeInodeSlot(ino);
  // Mark the slot unused on disk.
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 1 + kFreeListBlocks + index / ipb;
  auto raw = ReadBlockRaw(block);
  if (!raw.ok()) return raw.error();
  Bytes buf = raw.value();
  std::memset(buf.data() + (index % ipb) * kInodeDiskSize, 0,
              kInodeDiskSize);
  return WriteBlockRaw(block, buf);
}

Status XfsFs::RemoveNode(const std::string& path, bool want_dir) {
  auto parent = ResolveParent(path);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();
  auto it = std::find_if(
      entries.value().begin(), entries.value().end(),
      [&](const RawDirEntry& e) { return e.name == parent.value().name; });
  if (it == entries.value().end()) return Errno::kENOENT;

  auto target = LoadInode(it->ino);
  if (!target.ok()) return target.error();
  Inode target_inode = target.value();

  if (want_dir) {
    if (target_inode.type != FileType::kDirectory) return Errno::kENOTDIR;
    auto children = LoadDir(it->ino);
    if (!children.ok()) return children.error();
    if (!children.value().empty()) return Errno::kENOTEMPTY;
  } else if (target_inode.type == FileType::kDirectory) {
    return Errno::kEISDIR;
  }

  const InodeNum victim = it->ino;
  auto updated = entries.value();
  updated.erase(updated.begin() + (it - entries.value().begin()));
  Inode parent_inode = parent.value().parent;
  if (want_dir) --parent_inode.nlink;
  if (Status s = StoreDir(parent.value().parent_ino, parent_inode, updated);
      !s.ok()) {
    return s;
  }

  if (want_dir) {
    target_inode.nlink = 0;
  } else {
    --target_inode.nlink;
  }
  if (target_inode.nlink == 0) {
    return DropInodeStorage(target_inode, victim);
  }
  target_inode.ctime_ns = NowNs();
  return StoreInode(victim, target_inode);
}

Status XfsFs::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  return RemoveNode(path, /*want_dir=*/true);
}

Status XfsFs::Unlink(const std::string& path) {
  return RemoveNode(path, /*want_dir=*/false);
}

Result<std::vector<DirEntry>> XfsFs::ReadDir(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kDirectory) return Errno::kENOTDIR;
  if (!PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                         options_.identity, kROk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(res.value().ino);
  if (!entries.ok()) return entries.error();

  Inode inode = res.value().inode;
  inode.atime_ns = NowNs();
  if (Status s = StoreInode(res.value().ino, inode); !s.ok()) {
    return s.error();
  }

  std::vector<DirEntry> out;
  out.reserve(entries.value().size());
  for (const auto& e : entries.value()) {
    out.push_back({e.name, e.ino, e.type});
  }
  // xfsf trait: getdents returns entries in reverse-insertion order — a
  // different (equally POSIX-legal) ordering than ext2f/ext4f, which is
  // why MCFS sorts getdents output before comparing (paper §3.4).
  std::reverse(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

Result<FileHandle> XfsFs::Open(const std::string& path, std::uint32_t flags,
                               Mode mode) {
  if (!mounted_) return Errno::kEINVAL;
  auto res = ResolvePath(path);
  InodeNum ino;
  if (!res.ok()) {
    if (res.error() != Errno::kENOENT || !(flags & kCreate)) {
      return res.error();
    }
    auto created = CreateNode(path, FileType::kRegular, mode, "");
    if (!created.ok()) return created.error();
    ino = created.value();
  } else {
    if (flags & kCreate && flags & kExcl) return Errno::kEEXIST;
    ino = res.value().ino;
    Inode inode = res.value().inode;
    const bool want_write = (flags & kAccessModeMask) != kRdOnly;
    if (inode.type == FileType::kDirectory && want_write) {
      return Errno::kEISDIR;
    }
    if (inode.type == FileType::kSymlink) return Errno::kELOOP;
    const std::uint32_t want =
        want_write
            ? ((flags & kAccessModeMask) == kRdWr ? (kROk | kWOk) : kWOk)
            : kROk;
    if (!PermissionGranted(ToAttr(ino, inode), options_.identity, want)) {
      return Errno::kEACCES;
    }
    if ((flags & kTrunc) && want_write && inode.type == FileType::kRegular) {
      if (Status s = TruncateInode(inode, 0); !s.ok()) return s.error();
      inode.mtime_ns = NowNs();
      if (Status s = StoreInode(ino, inode); !s.ok()) return s.error();
    }
  }
  const FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino, flags};
  return fh;
}

Status XfsFs::Close(FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

Result<Bytes> XfsFs::Read(FileHandle fh, std::uint64_t offset,
                          std::uint64_t size) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kWrOnly) return Errno::kEBADF;
  auto inode = LoadInode(it->second.ino);
  if (!inode.ok()) return inode.error();
  if (inode.value().type == FileType::kDirectory) return Errno::kEISDIR;
  auto data = ReadInodeData(inode.value(), offset, size);
  if (!data.ok()) return data.error();
  Inode updated = inode.value();
  updated.atime_ns = NowNs();
  if (Status s = StoreInode(it->second.ino, updated); !s.ok()) {
    return s.error();
  }
  return data;
}

Result<std::uint64_t> XfsFs::Write(FileHandle fh, std::uint64_t offset,
                                   ByteView data) {
  if (!mounted_) return Errno::kEINVAL;
  auto it = open_files_.find(fh);
  if (it == open_files_.end()) return Errno::kEBADF;
  if ((it->second.flags & kAccessModeMask) == kRdOnly) return Errno::kEBADF;
  auto inode = LoadInode(it->second.ino);
  if (!inode.ok()) return inode.error();
  Inode updated = inode.value();
  if (it->second.flags & kAppend) offset = updated.size;
  auto written = WriteInodeData(updated, offset, data);
  if (!written.ok()) return written.error();
  updated.mtime_ns = NowNs();
  updated.ctime_ns = updated.mtime_ns;
  if (Status s = StoreInode(it->second.ino, updated); !s.ok()) {
    return s.error();
  }
  return written;
}

Status XfsFs::Truncate(const std::string& path, std::uint64_t size) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type == FileType::kDirectory) return Errno::kEISDIR;
  if (!PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  Inode inode = res.value().inode;
  if (Status s = TruncateInode(inode, size); !s.ok()) return s;
  inode.mtime_ns = NowNs();
  inode.ctime_ns = inode.mtime_ns;
  return StoreInode(res.value().ino, inode);
}

Status XfsFs::Fsync(FileHandle fh) {
  if (!mounted_) return Errno::kEINVAL;
  if (!open_files_.contains(fh)) return Errno::kEBADF;
  if (Status s = PersistFreeList(); !s.ok()) return s;
  return device_->Flush();
}

// ---------------------------------------------------------------------------
// Attributes

Status XfsFs::Chmod(const std::string& path, Mode mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (!options_.identity.IsRoot() &&
      options_.identity.uid != res.value().inode.uid) {
    return Errno::kEPERM;
  }
  Inode inode = res.value().inode;
  inode.mode = static_cast<Mode>(mode & kModeMask);
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

Status XfsFs::Chown(const std::string& path, std::uint32_t uid,
                    std::uint32_t gid) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (!options_.identity.IsRoot()) return Errno::kEPERM;
  Inode inode = res.value().inode;
  inode.uid = uid;
  inode.gid = gid;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
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

// ---------------------------------------------------------------------------
// Optional ops

bool XfsFs::Supports(FsFeature feature) const {
  switch (feature) {
    case FsFeature::kRename:
    case FsFeature::kHardLink:
    case FsFeature::kSymlink:
    case FsFeature::kAccess:
    case FsFeature::kXattr:
      return true;
    case FsFeature::kCheckpointRestore:
      return false;
  }
  return false;
}

Status XfsFs::Rename(const std::string& from, const std::string& to) {
  if (from == "/" || to == "/") return Errno::kEBUSY;
  if (IsPathPrefix(from, to) && from != to) return Errno::kEINVAL;

  auto src_parent = ResolveParent(from);
  if (!src_parent.ok()) return src_parent.error();
  auto src_entries = LoadDir(src_parent.value().parent_ino);
  if (!src_entries.ok()) return src_entries.error();
  auto src_it = std::find_if(src_entries.value().begin(),
                             src_entries.value().end(),
                             [&](const RawDirEntry& e) {
                               return e.name == src_parent.value().name;
                             });
  if (src_it == src_entries.value().end()) return Errno::kENOENT;

  auto dst_parent = ResolveParent(to);
  if (!dst_parent.ok()) return dst_parent.error();

  if (!PermissionGranted(ToAttr(src_parent.value().parent_ino,
                                src_parent.value().parent),
                         options_.identity, kWOk) ||
      !PermissionGranted(ToAttr(dst_parent.value().parent_ino,
                                dst_parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  if (from == to) return Status::Ok();

  const RawDirEntry moving = *src_it;
  const bool same_dir =
      src_parent.value().parent_ino == dst_parent.value().parent_ino;
  auto dst_entries =
      same_dir ? src_entries : LoadDir(dst_parent.value().parent_ino);
  if (!dst_entries.ok()) return dst_entries.error();

  auto dst_it = std::find_if(dst_entries.value().begin(),
                             dst_entries.value().end(),
                             [&](const RawDirEntry& e) {
                               return e.name == dst_parent.value().name;
                             });
  bool replaced_dir = false;
  if (dst_it != dst_entries.value().end()) {
    auto target = LoadInode(dst_it->ino);
    if (!target.ok()) return target.error();
    Inode target_inode = target.value();
    if (moving.type == FileType::kDirectory) {
      if (target_inode.type != FileType::kDirectory) return Errno::kENOTDIR;
      auto children = LoadDir(dst_it->ino);
      if (!children.ok()) return children.error();
      if (!children.value().empty()) return Errno::kENOTEMPTY;
      replaced_dir = true;
    } else if (target_inode.type == FileType::kDirectory) {
      return Errno::kEISDIR;
    }
    const InodeNum victim = dst_it->ino;
    if (moving.type == FileType::kDirectory) {
      target_inode.nlink = 0;
    } else {
      --target_inode.nlink;
    }
    if (target_inode.nlink == 0) {
      if (Status s = DropInodeStorage(target_inode, victim); !s.ok()) {
        return s;
      }
    } else {
      target_inode.ctime_ns = NowNs();
      if (Status s = StoreInode(victim, target_inode); !s.ok()) return s;
    }
    dst_entries.value().erase(dst_it);
  }

  if (same_dir) {
    auto& entries = dst_entries.value();
    entries.erase(std::find_if(entries.begin(), entries.end(),
                               [&](const RawDirEntry& e) {
                                 return e.name == src_parent.value().name;
                               }));
    entries.push_back({dst_parent.value().name, moving.ino, moving.type});
    Inode parent_inode = src_parent.value().parent;
    if (replaced_dir) --parent_inode.nlink;
    return StoreDir(src_parent.value().parent_ino, parent_inode, entries);
  }

  auto& src_list = src_entries.value();
  src_list.erase(std::find_if(src_list.begin(), src_list.end(),
                              [&](const RawDirEntry& e) {
                                return e.name == src_parent.value().name;
                              }));
  Inode src_dir = src_parent.value().parent;
  if (moving.type == FileType::kDirectory) --src_dir.nlink;
  if (Status s = StoreDir(src_parent.value().parent_ino, src_dir, src_list);
      !s.ok()) {
    return s;
  }

  dst_entries.value().push_back(
      {dst_parent.value().name, moving.ino, moving.type});
  auto dst_dir = LoadInode(dst_parent.value().parent_ino);
  if (!dst_dir.ok()) return dst_dir.error();
  Inode dst_inode = dst_dir.value();
  if (moving.type == FileType::kDirectory && !replaced_dir) ++dst_inode.nlink;
  return StoreDir(dst_parent.value().parent_ino, dst_inode,
                  dst_entries.value());
}

Status XfsFs::Link(const std::string& existing, const std::string& link) {
  auto src = ResolvePath(existing);
  if (!src.ok()) return src.error();
  if (src.value().inode.type == FileType::kDirectory) return Errno::kEPERM;

  auto parent = ResolveParent(link);
  if (!parent.ok()) return parent.error();
  if (!PermissionGranted(ToAttr(parent.value().parent_ino,
                                parent.value().parent),
                         options_.identity, kWOk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(parent.value().parent_ino);
  if (!entries.ok()) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == parent.value().name) return Errno::kEEXIST;
  }

  Inode inode = src.value().inode;
  ++inode.nlink;
  inode.ctime_ns = NowNs();
  if (Status s = StoreInode(src.value().ino, inode); !s.ok()) return s;

  auto updated = entries.value();
  updated.push_back({parent.value().name, src.value().ino, inode.type});
  Inode parent_inode = parent.value().parent;
  return StoreDir(parent.value().parent_ino, parent_inode, updated);
}

Status XfsFs::Symlink(const std::string& target, const std::string& link) {
  if (target.empty() || target.size() > kPathMax) return Errno::kEINVAL;
  auto ino = CreateNode(link, FileType::kSymlink, 0777, target);
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Result<std::string> XfsFs::ReadLink(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kSymlink) return Errno::kEINVAL;
  auto data = ReadInodeData(res.value().inode, 0, res.value().inode.size);
  if (!data.ok()) return data.error();
  return std::string(AsString(data.value()));
}

Status XfsFs::Access(const std::string& path, std::uint32_t mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (mode == kFOk) return Status::Ok();
  return PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                           options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

// ---------------------------------------------------------------------------
// Xattrs

Result<XfsFs::XattrMap> XfsFs::LoadXattrs(const Inode& inode) {
  XattrMap out;
  if (inode.xattr_block == 0) return out;
  auto raw = ReadBlockRaw(inode.xattr_block);
  if (!raw.ok()) return raw.error();
  try {
    ByteReader r(raw.value());
    const std::uint32_t count = r.GetU32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.GetString();
      Bytes value = r.GetBlob();
      out[std::move(name)] = std::move(value);
    }
    return out;
  } catch (const std::out_of_range&) {
    return Errno::kEIO;  // corrupted xattr block
  }
}

Status XfsFs::StoreXattrs(Inode& inode, const XattrMap& xattrs) {
  if (xattrs.empty()) {
    if (inode.xattr_block != 0) {
      FreeBlocks(inode.xattr_block, 1);
      inode.xattr_block = 0;
    }
    return Status::Ok();
  }
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(xattrs.size()));
  for (const auto& [name, value] : xattrs) {
    w.PutString(name);
    w.PutBlob(value);
  }
  if (w.size() > options_.block_size) return Errno::kENOSPC;
  if (inode.xattr_block == 0) {
    auto alloc = AllocBlocks(1);
    if (!alloc.ok()) return alloc.error();
    inode.xattr_block = alloc.value();
  }
  return WriteBlockRaw(inode.xattr_block, w.bytes());
}

Status XfsFs::SetXattr(const std::string& path, const std::string& name,
                       ByteView value) {
  if (name.empty() || name.size() > kNameMax) return Errno::kEINVAL;
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  Inode inode = res.value().inode;
  auto xattrs = LoadXattrs(inode);
  if (!xattrs.ok()) return xattrs.error();
  xattrs.value()[name] = Bytes(value.begin(), value.end());
  if (Status s = StoreXattrs(inode, xattrs.value()); !s.ok()) return s;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

Result<Bytes> XfsFs::GetXattr(const std::string& path,
                              const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  auto it = xattrs.value().find(name);
  if (it == xattrs.value().end()) return Errno::kENODATA;
  return it->second;
}

Result<std::vector<std::string>> XfsFs::ListXattr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  std::vector<std::string> names;
  names.reserve(xattrs.value().size());
  for (const auto& [name, value] : xattrs.value()) names.push_back(name);
  return names;
}

Status XfsFs::RemoveXattr(const std::string& path, const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  Inode inode = res.value().inode;
  auto xattrs = LoadXattrs(inode);
  if (!xattrs.ok()) return xattrs.error();
  if (xattrs.value().erase(name) == 0) return Errno::kENODATA;
  if (Status s = StoreXattrs(inode, xattrs.value()); !s.ok()) return s;
  inode.ctime_ns = NowNs();
  return StoreInode(res.value().ino, inode);
}

}  // namespace mcfs::fs
