#include "fs/ext2/ext2fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mcfs::fs {

namespace {

// Bit helpers over a byte-vector bitmap.
bool BitmapGet(const Bytes& bm, std::uint64_t i) {
  return (bm[i / 8] >> (i % 8)) & 1;
}
void BitmapSet(Bytes& bm, std::uint64_t i, bool v) {
  if (v) {
    bm[i / 8] = static_cast<std::uint8_t>(bm[i / 8] | (1u << (i % 8)));
  } else {
    bm[i / 8] = static_cast<std::uint8_t>(bm[i / 8] & ~(1u << (i % 8)));
  }
}

}  // namespace

Ext2Fs::Ext2Fs(storage::BlockDevicePtr device, Ext2Options options)
    : NamespaceFs(std::move(device), std::move(options)) {}

Ext2Fs::~Ext2Fs() {
  if (mounted_) (void)Unmount();
}

std::uint32_t Ext2Fs::data_region_start() const {
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t inode_table_blocks =
      (options_.inode_count + ipb - 1) / ipb;
  return 3 + inode_table_blocks + options_.journal_blocks;
}

// ---------------------------------------------------------------------------
// Serialization

namespace {

void SerializeInode(const Ext2Fs*, ByteWriter& w, FileType type, Mode mode,
                    std::uint32_t nlink, std::uint32_t uid, std::uint32_t gid,
                    std::uint64_t size, std::uint64_t atime,
                    std::uint64_t mtime, std::uint64_t ctime,
                    const std::array<std::uint32_t, 12>& direct,
                    std::uint32_t indirect, std::uint32_t xattr_block) {
  w.PutU8(static_cast<std::uint8_t>(type));
  w.PutU16(mode);
  w.PutU32(nlink);
  w.PutU32(uid);
  w.PutU32(gid);
  w.PutU64(size);
  w.PutU64(atime);
  w.PutU64(mtime);
  w.PutU64(ctime);
  for (std::uint32_t d : direct) w.PutU32(d);
  w.PutU32(indirect);
  w.PutU32(xattr_block);
}

}  // namespace

// ---------------------------------------------------------------------------
// Block cache

void Ext2Fs::TouchBlock(std::uint32_t block_no) {
  cache_age_[block_no] = ++cache_tick_;
}

Status Ext2Fs::EvictIfNeeded() {
  if (options_.cache_capacity_blocks == 0) return Status::Ok();
  while (cache_.size() > options_.cache_capacity_blocks) {
    // Least-recently-used victim (clean preferred, dirty flushed first).
    std::uint32_t victim = 0;
    std::uint64_t best_age = ~0ull;
    bool victim_dirty = true;
    for (const auto& [block, contents] : cache_) {
      const bool dirty = cache_dirty_.contains(block) &&
                         cache_dirty_.at(block);
      const std::uint64_t age =
          cache_age_.contains(block) ? cache_age_.at(block) : 0;
      // Prefer clean victims; among equals, oldest first.
      if ((dirty < victim_dirty) ||
          (dirty == victim_dirty && age < best_age)) {
        victim = block;
        best_age = age;
        victim_dirty = dirty;
      }
    }
    if (victim_dirty) {
      if (Status s = device_->Write(
              static_cast<std::uint64_t>(victim) * options_.block_size,
              cache_.at(victim));
          !s.ok()) {
        return s;
      }
    }
    cache_.erase(victim);
    cache_dirty_.erase(victim);
    cache_age_.erase(victim);
  }
  return Status::Ok();
}

Result<Bytes> Ext2Fs::ReadBlock(std::uint32_t block_no) {
  auto it = cache_.find(block_no);
  if (it != cache_.end()) {
    TouchBlock(block_no);
    return it->second;
  }
  Bytes buf(options_.block_size);
  if (Status s = device_->Read(
          static_cast<std::uint64_t>(block_no) * options_.block_size, buf);
      !s.ok()) {
    return s.error();
  }
  cache_[block_no] = buf;
  TouchBlock(block_no);
  if (Status s = EvictIfNeeded(); !s.ok()) return s.error();
  return buf;
}

Status Ext2Fs::WriteBlock(std::uint32_t block_no, ByteView data) {
  assert(data.size() <= options_.block_size);
  Bytes buf(data.begin(), data.end());
  buf.resize(options_.block_size, 0);
  cache_[block_no] = std::move(buf);
  cache_dirty_[block_no] = true;
  TouchBlock(block_no);
  return EvictIfNeeded();
}

std::uint64_t Ext2Fs::dirty_block_count() const {
  std::uint64_t n = 0;
  for (const auto& [block, dirty] : cache_dirty_) {
    if (dirty) ++n;
  }
  return n;
}

Status Ext2Fs::PrepareFlush(const std::map<std::uint32_t, Bytes>&) {
  return Status::Ok();  // ext4f overrides this with its journal
}

Status Ext2Fs::FinishFlush() { return Status::Ok(); }

Status Ext2Fs::RecoverOnMount() { return Status::Ok(); }

Status Ext2Fs::FlushCache() {
  std::map<std::uint32_t, Bytes> dirty;
  for (const auto& [block, is_dirty] : cache_dirty_) {
    if (is_dirty) dirty[block] = cache_.at(block);
  }
  if (dirty.empty()) return Status::Ok();
  if (Status s = PrepareFlush(dirty); !s.ok()) return s;
  for (const auto& [block, contents] : dirty) {
    if (Status s = device_->Write(
            static_cast<std::uint64_t>(block) * options_.block_size,
            contents);
        !s.ok()) {
      return s;
    }
    cache_dirty_[block] = false;
  }
  if (!ack_without_barrier_) {
    if (Status s = device_->Flush(); !s.ok()) return s;
  }
  return FinishFlush();
}

// ---------------------------------------------------------------------------
// Superblock and bitmaps

Status Ext2Fs::WriteSuperblock() {
  ByteWriter w;
  w.PutU32(sb_.magic);
  w.PutU32(sb_.block_size);
  w.PutU32(sb_.total_blocks);
  w.PutU32(sb_.inode_count);
  w.PutU32(sb_.free_blocks);
  w.PutU32(sb_.free_inodes);
  w.PutU32(sb_.journal_blocks);
  return WriteBlock(0, w.bytes());
}

Status Ext2Fs::WriteBitmaps() {
  if (Status s = WriteBlock(1, block_bitmap_); !s.ok()) return s;
  return WriteBlock(2, inode_bitmap_);
}

// ---------------------------------------------------------------------------
// Lifecycle

Status Ext2Fs::Mkfs() {
  if (Status s = CheckNotMounted(); !s.ok()) return s;
  const std::uint32_t bs = options_.block_size;
  const std::uint64_t total_blocks64 = device_->size_bytes() / bs;
  if (total_blocks64 < data_region_start() + 2) return Errno::kENOSPC;
  const auto total_blocks = static_cast<std::uint32_t>(total_blocks64);
  if (options_.inode_count * 8ULL > static_cast<std::uint64_t>(bs) * 8 ||
      total_blocks > bs * 8ULL) {
    // Bitmaps must fit in one block each.
    return Errno::kEINVAL;
  }

  // Format through the cache so all writes land in one device pass.
  cache_.clear();
  cache_dirty_.clear();
  cache_age_.clear();

  sb_ = Superblock{};
  sb_.magic = kMagic;
  sb_.block_size = bs;
  sb_.total_blocks = total_blocks;
  sb_.inode_count = options_.inode_count;
  sb_.journal_blocks = options_.journal_blocks;
  sb_.free_blocks = total_blocks - data_region_start();
  sb_.free_inodes = options_.inode_count;

  block_bitmap_.assign(bs, 0);
  inode_bitmap_.assign(bs, 0);
  for (std::uint32_t b = 0; b < data_region_start(); ++b) {
    BitmapSet(block_bitmap_, b, true);
  }

  // Zero the inode table and journal region.
  const Bytes zero(bs, 0);
  for (std::uint32_t b = 3; b < data_region_start(); ++b) {
    if (Status s = WriteBlock(b, zero); !s.ok()) return s;
  }

  // Root directory.
  mounted_ = true;  // allow the helpers to run during format
  Inode root;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.nlink = 2;
  root.uid = options_.identity.uid;
  root.gid = options_.identity.gid;
  const std::uint64_t t = NowNs();
  root.atime_ns = root.mtime_ns = root.ctime_ns = t;
  BitmapSet(inode_bitmap_, kRootIno - 1, true);
  --sb_.free_inodes;
  if (Status s = StoreDir(kRootIno, root, {}); !s.ok()) {
    mounted_ = false;
    return s;
  }
  if (Status s = StoreInode(kRootIno, root); !s.ok()) {
    mounted_ = false;
    return s;
  }

  if (options_.create_lost_and_found) {
    if (Status s = Mkdir("/lost+found", 0700); !s.ok()) {
      mounted_ = false;
      return s;
    }
  }

  if (Status s = WriteSuperblock(); !s.ok()) {
    mounted_ = false;
    return s;
  }
  if (Status s = WriteBitmaps(); !s.ok()) {
    mounted_ = false;
    return s;
  }
  Status flush = FlushCache();
  mounted_ = false;
  cache_.clear();
  cache_dirty_.clear();
  cache_age_.clear();
  open_files_.clear();
  return flush;
}

Status Ext2Fs::Mount() {
  if (mounted_) return Errno::kEBUSY;
  cache_.clear();
  cache_dirty_.clear();
  cache_age_.clear();

  if (Status s = RecoverOnMount(); !s.ok()) return s;

  Bytes sb_raw(options_.block_size);
  if (Status s = device_->Read(0, sb_raw); !s.ok()) return s;
  ByteReader r(sb_raw);
  Superblock sb;
  sb.magic = r.GetU32();
  sb.block_size = r.GetU32();
  sb.total_blocks = r.GetU32();
  sb.inode_count = r.GetU32();
  sb.free_blocks = r.GetU32();
  sb.free_inodes = r.GetU32();
  sb.journal_blocks = r.GetU32();
  if (sb.magic != kMagic || sb.block_size != options_.block_size) {
    return Errno::kEINVAL;
  }
  sb_ = sb;

  block_bitmap_.resize(options_.block_size);
  inode_bitmap_.resize(options_.block_size);
  if (Status s = device_->Read(options_.block_size, block_bitmap_); !s.ok()) {
    return s;
  }
  if (Status s = device_->Read(2ULL * options_.block_size, inode_bitmap_);
      !s.ok()) {
    return s;
  }

  mounted_ = true;
  return Status::Ok();
}

Status Ext2Fs::Unmount() {
  if (Status s = CheckMounted(); !s.ok()) return s;
  if (Status s = WriteSuperblock(); !s.ok()) return s;
  if (Status s = WriteBitmaps(); !s.ok()) return s;
  if (Status s = FlushCache(); !s.ok()) return s;
  mounted_ = false;
  cache_.clear();
  cache_dirty_.clear();
  cache_age_.clear();
  open_files_.clear();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Mount-state capture (paper §7 future work)

Result<Bytes> Ext2Fs::ExportMountState() const {
  if (!mounted_) return Errno::kEINVAL;
  ByteWriter w;
  w.PutU32(sb_.magic);
  w.PutU32(sb_.block_size);
  w.PutU32(sb_.total_blocks);
  w.PutU32(sb_.inode_count);
  w.PutU32(sb_.free_blocks);
  w.PutU32(sb_.free_inodes);
  w.PutU32(sb_.journal_blocks);
  w.PutBlob(block_bitmap_);
  w.PutBlob(inode_bitmap_);
  w.PutU32(static_cast<std::uint32_t>(cache_.size()));
  for (const auto& [block, contents] : cache_) {
    w.PutU32(block);
    w.PutU8(cache_dirty_.contains(block) && cache_dirty_.at(block) ? 1 : 0);
    w.PutBlob(contents);
  }
  w.PutU64(op_counter_);
  return w.Take();
}

Status Ext2Fs::ImportMountState(ByteView image) {
  if (!mounted_) return Errno::kEINVAL;
  // Parse and check the whole blob first, so a hostile or truncated one
  // changes nothing. The geometry must be this device's and these
  // options' (what Mkfs writes), and each bitmap and cached block one
  // block long, as Mount and ReadBlock make them. Blocks stay views into
  // `image` until then, so the old cache is dropped before the new one
  // is copied in and an import never holds two caches at once.
  struct CachedBlock {
    std::uint32_t block = 0;
    bool dirty = false;
    ByteView contents;
  };
  Superblock sb;
  ByteView block_bitmap;
  ByteView inode_bitmap;
  std::vector<CachedBlock> cached;
  std::uint64_t op_counter = 0;
  try {
    ByteReader r(image);
    auto blob = [&r] {
      return r.GetBytes(static_cast<std::size_t>(r.GetU64()));
    };
    sb.magic = r.GetU32();
    sb.block_size = r.GetU32();
    sb.total_blocks = r.GetU32();
    sb.inode_count = r.GetU32();
    sb.free_blocks = r.GetU32();
    sb.free_inodes = r.GetU32();
    sb.journal_blocks = r.GetU32();
    if (sb.magic != kMagic || sb.block_size != options_.block_size ||
        sb.total_blocks != device_->size_bytes() / options_.block_size ||
        sb.inode_count != options_.inode_count) {
      return Errno::kEINVAL;
    }
    block_bitmap = blob();
    inode_bitmap = blob();
    if (block_bitmap.size() != options_.block_size ||
        inode_bitmap.size() != options_.block_size) {
      return Errno::kEINVAL;
    }
    const std::uint32_t count = r.GetU32();
    // A record is at least a block number, a dirty flag and a blob
    // length, which bounds the count before anything is reserved.
    if (count > r.remaining() / (4 + 1 + 8)) return Errno::kEINVAL;
    cached.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      CachedBlock c;
      c.block = r.GetU32();
      c.dirty = r.GetU8() != 0;
      c.contents = blob();
      if (c.block >= sb.total_blocks ||
          c.contents.size() != options_.block_size) {
        return Errno::kEINVAL;
      }
      cached.push_back(c);
    }
    op_counter = r.GetU64();
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
  sb_ = sb;
  block_bitmap_.assign(block_bitmap.begin(), block_bitmap.end());
  inode_bitmap_.assign(inode_bitmap.begin(), inode_bitmap.end());
  cache_.clear();
  cache_dirty_.clear();
  cache_age_.clear();
  for (const CachedBlock& c : cached) {
    cache_[c.block].assign(c.contents.begin(), c.contents.end());
    cache_dirty_[c.block] = c.dirty;
    TouchBlock(c.block);
  }
  op_counter_ = op_counter;
  open_files_.clear();  // handles do not survive a rollback
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Allocation

Result<std::uint32_t> Ext2Fs::AllocBlock() {
  for (std::uint32_t b = data_region_start(); b < sb_.total_blocks; ++b) {
    if (!BitmapGet(block_bitmap_, b)) {
      BitmapSet(block_bitmap_, b, true);
      --sb_.free_blocks;
      // New blocks are born zeroed; files must never see stale data.
      const Bytes zero(options_.block_size, 0);
      if (Status s = WriteBlock(b, zero); !s.ok()) return s.error();
      return b;
    }
  }
  return Errno::kENOSPC;
}

Status Ext2Fs::FreeBlock(std::uint32_t block_no) {
  if (block_no < data_region_start() || block_no >= sb_.total_blocks) {
    return Errno::kEINVAL;
  }
  BitmapSet(block_bitmap_, block_no, false);
  ++sb_.free_blocks;
  return Status::Ok();
}

Result<InodeNum> Ext2Fs::AllocInode() {
  for (std::uint32_t i = 0; i < sb_.inode_count; ++i) {
    if (!BitmapGet(inode_bitmap_, i)) {
      BitmapSet(inode_bitmap_, i, true);
      --sb_.free_inodes;
      return static_cast<InodeNum>(i + 1);
    }
  }
  return Errno::kENOSPC;
}

Status Ext2Fs::FreeInode(InodeNum ino) {
  if (ino == kInvalidInode || ino > sb_.inode_count) return Errno::kEINVAL;
  BitmapSet(inode_bitmap_, ino - 1, false);
  ++sb_.free_inodes;
  return Status::Ok();
}

Status Ext2Fs::DropInode(Inode& inode, InodeNum ino) {
  if (Status s = FreeFileBlocks(inode, 0); !s.ok()) return s;
  if (inode.xattr_block != 0) {
    if (Status s = FreeBlock(inode.xattr_block); !s.ok()) return s;
    inode.xattr_block = 0;
  }
  return FreeInode(ino);
}

// ---------------------------------------------------------------------------
// Inode I/O

Result<Ext2Fs::Inode> Ext2Fs::LoadInode(InodeNum ino) {
  if (ino == kInvalidInode || ino > sb_.inode_count) return Errno::kEINVAL;
  if (!BitmapGet(inode_bitmap_, ino - 1)) return Errno::kENOENT;
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 3 + index / ipb;
  const std::uint32_t offset = (index % ipb) * kInodeDiskSize;

  auto raw = ReadBlock(block);
  if (!raw.ok()) return raw.error();
  ByteReader r(ByteView(raw.value()).subspan(offset, kInodeDiskSize));
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
  for (auto& d : inode.direct) d = r.GetU32();
  inode.indirect = r.GetU32();
  inode.xattr_block = r.GetU32();
  return inode;
}

Status Ext2Fs::StoreInode(InodeNum ino, const Inode& inode) {
  if (ino == kInvalidInode || ino > sb_.inode_count) return Errno::kEINVAL;
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t index = static_cast<std::uint32_t>(ino - 1);
  const std::uint32_t block = 3 + index / ipb;
  const std::uint32_t offset = (index % ipb) * kInodeDiskSize;

  auto raw = ReadBlock(block);
  if (!raw.ok()) return raw.error();
  Bytes buf = raw.value();

  ByteWriter w;
  SerializeInode(this, w, inode.type, inode.mode, inode.nlink, inode.uid,
                 inode.gid, inode.size, inode.atime_ns, inode.mtime_ns,
                 inode.ctime_ns, inode.direct, inode.indirect,
                 inode.xattr_block);
  assert(w.size() <= kInodeDiskSize);
  std::memset(buf.data() + offset, 0, kInodeDiskSize);
  std::memcpy(buf.data() + offset, w.bytes().data(), w.size());
  return WriteBlock(block, buf);
}

// ---------------------------------------------------------------------------
// File block mapping

Result<std::uint32_t> Ext2Fs::MapBlock(const Inode& inode,
                                       std::uint64_t index) {
  if (index < inode.direct.size()) return inode.direct[index];
  const std::uint64_t ind_index = index - inode.direct.size();
  const std::uint64_t per_block = options_.block_size / 4;
  if (ind_index >= per_block) return Errno::kEFBIG;
  if (inode.indirect == 0) return 0u;  // hole
  auto raw = ReadBlock(inode.indirect);
  if (!raw.ok()) return raw.error();
  const Bytes& b = raw.value();
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + ind_index * 4, 4);
  return v;
}

Result<std::uint32_t> Ext2Fs::MapBlockAlloc(Inode& inode,
                                            std::uint64_t index) {
  auto existing = MapBlock(inode, index);
  if (!existing.ok()) return existing.error();
  if (existing.value() != 0) return existing.value();

  auto alloc = AllocBlock();
  if (!alloc.ok()) return alloc.error();
  const std::uint32_t new_block = alloc.value();

  if (index < inode.direct.size()) {
    inode.direct[index] = new_block;
    return new_block;
  }
  const std::uint64_t ind_index = index - inode.direct.size();
  if (inode.indirect == 0) {
    auto ind = AllocBlock();
    if (!ind.ok()) {
      (void)FreeBlock(new_block);
      return ind.error();
    }
    inode.indirect = ind.value();
  }
  auto raw = ReadBlock(inode.indirect);
  if (!raw.ok()) return raw.error();
  Bytes b = raw.value();
  std::memcpy(b.data() + ind_index * 4, &new_block, 4);
  if (Status s = WriteBlock(inode.indirect, b); !s.ok()) return s.error();
  return new_block;
}

Status Ext2Fs::FreeFileBlocks(Inode& inode, std::uint64_t from_block) {
  const std::uint64_t per_block = options_.block_size / 4;
  const std::uint64_t max_blocks = inode.direct.size() + per_block;
  for (std::uint64_t i = from_block; i < max_blocks; ++i) {
    auto mapped = MapBlock(inode, i);
    if (!mapped.ok()) return mapped.error();
    if (mapped.value() == 0) continue;
    if (Status s = FreeBlock(mapped.value()); !s.ok()) return s;
    if (i < inode.direct.size()) {
      inode.direct[i] = 0;
    } else {
      auto raw = ReadBlock(inode.indirect);
      if (!raw.ok()) return raw.error();
      Bytes b = raw.value();
      const std::uint32_t zero = 0;
      std::memcpy(b.data() + (i - inode.direct.size()) * 4, &zero, 4);
      if (Status s = WriteBlock(inode.indirect, b); !s.ok()) return s.error();
    }
  }
  // Drop the indirect block if nothing above the direct range remains.
  if (from_block <= inode.direct.size() && inode.indirect != 0) {
    if (Status s = FreeBlock(inode.indirect); !s.ok()) return s;
    inode.indirect = 0;
  }
  return Status::Ok();
}

std::uint64_t Ext2Fs::max_file_bytes() const {
  return (Ext2Inode::kDirectBlocks + options_.block_size / 4) *
         options_.block_size;
}

std::uint64_t Ext2Fs::CountAllocatedBlocks(const Inode& inode) {
  std::uint64_t n = 0;
  const std::uint64_t per_block = options_.block_size / 4;
  for (std::uint64_t i = 0; i < inode.direct.size() + per_block; ++i) {
    auto mapped = MapBlock(inode, i);
    if (mapped.ok() && mapped.value() != 0) ++n;
  }
  if (inode.indirect != 0) ++n;
  if (inode.xattr_block != 0) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Attribute view

InodeAttr Ext2Fs::ToAttr(InodeNum ino, const Inode& inode) const {
  InodeAttr attr;
  attr.ino = ino;
  attr.type = inode.type;
  attr.mode = inode.mode;
  attr.nlink = inode.nlink;
  attr.uid = inode.uid;
  attr.gid = inode.gid;
  if (inode.type == FileType::kDirectory) {
    // ext2/ext4 trait: directory sizes are whole blocks (paper §3.4).
    const std::uint32_t bs = options_.block_size;
    attr.size = std::max<std::uint64_t>(bs, (inode.size + bs - 1) / bs * bs);
  } else {
    attr.size = inode.size;
  }
  attr.atime_ns = inode.atime_ns;
  attr.mtime_ns = inode.mtime_ns;
  attr.ctime_ns = inode.ctime_ns;
  attr.blocks = 0;  // filled by callers that need it (GetAttr)
  return attr;
}

// ---------------------------------------------------------------------------
// Sync and capacity

Status Ext2Fs::Fsync(FileHandle fh) {
  if (Status s = CheckMounted(); !s.ok()) return s;
  if (!open_files_.contains(fh)) return Errno::kEBADF;
  ack_without_barrier_ = options_.bug_ack_before_journal_commit;
  Status s = WriteSuperblock();
  if (s.ok()) s = WriteBitmaps();
  if (s.ok()) s = FlushCache();
  ack_without_barrier_ = false;
  return s;
}

Result<StatVfs> Ext2Fs::StatFs() {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  StatVfs out;
  out.block_size = options_.block_size;
  out.total_bytes =
      static_cast<std::uint64_t>(sb_.total_blocks - data_region_start()) *
      options_.block_size;
  out.free_bytes =
      static_cast<std::uint64_t>(sb_.free_blocks) * options_.block_size;
  out.total_inodes = sb_.inode_count;
  out.free_inodes = sb_.free_inodes;
  return out;
}

}  // namespace mcfs::fs
