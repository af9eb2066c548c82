#include "fs/ext2/ext2fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "fs/path.h"

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
    : device_(std::move(device)), options_(std::move(options)) {}

Ext2Fs::~Ext2Fs() {
  if (mounted_) (void)Unmount();
}

std::uint32_t Ext2Fs::data_region_start() const {
  const std::uint32_t ipb = options_.block_size / kInodeDiskSize;
  const std::uint32_t inode_table_blocks =
      (options_.inode_count + ipb - 1) / ipb;
  return 3 + inode_table_blocks + options_.journal_blocks;
}

std::uint64_t Ext2Fs::NowNs() {
  // Deterministic, strictly monotonic pseudo-time: one microsecond per
  // operation. Real time would make exploration non-reproducible.
  return ++op_counter_ * 1000;
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
// Inode data I/O

Result<Bytes> Ext2Fs::ReadInodeData(const Inode& inode, std::uint64_t offset,
                                    std::uint64_t size) {
  if (offset >= inode.size) return Bytes{};
  // Clamp to the format's maximum file size: a corrupted on-disk inode
  // (e.g. after a §3.2-style unsynchronized restore) can carry a garbage
  // size field, and honoring it would be an allocation bomb.
  const std::uint64_t max_bytes =
      (inode.direct.size() + options_.block_size / 4) * options_.block_size;
  if (inode.size > max_bytes) return Errno::kEIO;
  const std::uint64_t n = std::min(size, inode.size - offset);
  Bytes out(n, 0);
  const std::uint32_t bs = options_.block_size;
  std::uint64_t done = 0;
  while (done < n) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t file_block = pos / bs;
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take = std::min<std::uint64_t>(bs - in_block, n - done);
    auto mapped = MapBlock(inode, file_block);
    if (!mapped.ok()) return mapped.error();
    if (mapped.value() != 0) {
      auto raw = ReadBlock(mapped.value());
      if (!raw.ok()) return raw.error();
      std::memcpy(out.data() + done, raw.value().data() + in_block, take);
    }  // holes read as zeros
    done += take;
  }
  return out;
}

Result<std::uint64_t> Ext2Fs::WriteInodeData(Inode& inode,
                                             std::uint64_t offset,
                                             ByteView data) {
  const std::uint32_t bs = options_.block_size;
  const std::uint64_t per_block = bs / 4;
  const std::uint64_t max_size = (inode.direct.size() + per_block) * bs;
  if (offset + data.size() > max_size) return Errno::kEFBIG;

  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t file_block = pos / bs;
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t take =
        std::min<std::uint64_t>(bs - in_block, data.size() - done);
    auto mapped = MapBlockAlloc(inode, file_block);
    if (!mapped.ok()) return mapped.error();
    auto raw = ReadBlock(mapped.value());
    if (!raw.ok()) return raw.error();
    Bytes b = raw.value();
    std::memcpy(b.data() + in_block, data.data() + done, take);
    if (Status s = WriteBlock(mapped.value(), b); !s.ok()) return s.error();
    done += take;
  }
  if (offset + data.size() > inode.size) inode.size = offset + data.size();
  return data.size();
}

Status Ext2Fs::TruncateInode(Inode& inode, std::uint64_t new_size) {
  const std::uint32_t bs = options_.block_size;
  if (new_size < inode.size) {
    const std::uint64_t keep_blocks = (new_size + bs - 1) / bs;
    if (Status s = FreeFileBlocks(inode, keep_blocks); !s.ok()) return s;
    // Zero the tail of the final partial block so a later extension reads
    // zeros. (This is the step the first VeriFS1 bug omitted, paper §6.)
    if (new_size % bs != 0) {
      auto mapped = MapBlock(inode, new_size / bs);
      if (!mapped.ok()) return mapped.error();
      if (mapped.value() != 0) {
        auto raw = ReadBlock(mapped.value());
        if (!raw.ok()) return raw.error();
        Bytes b = raw.value();
        std::memset(b.data() + new_size % bs, 0, bs - new_size % bs);
        if (Status s = WriteBlock(mapped.value(), b); !s.ok()) {
          return s.error();
        }
      }
    }
  }
  // Growth needs no allocation: unmapped blocks read as zeros.
  inode.size = new_size;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Directories

Result<std::vector<Ext2Fs::RawDirEntry>> Ext2Fs::LoadDir(InodeNum ino) {
  auto inode = LoadInode(ino);
  if (!inode.ok()) return inode.error();
  if (inode.value().type != FileType::kDirectory) return Errno::kENOTDIR;
  auto raw = ReadInodeData(inode.value(), 0, inode.value().size);
  if (!raw.ok()) return raw.error();
  if (raw.value().empty()) return std::vector<RawDirEntry>{};

  // A corrupted directory block parses as garbage; surface it as EIO —
  // the "directory entries with corrupted or zeroed inodes" symptom the
  // paper saw after unsynchronized restores (§3.2).
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
    return Errno::kEIO;
  }
}

Status Ext2Fs::StoreDir(InodeNum ino, Inode& inode,
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

Result<Ext2Fs::Resolved> Ext2Fs::ResolvePath(const std::string& path) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
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

Result<Ext2Fs::ResolvedParent> Ext2Fs::ResolveParent(const std::string& path) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
  auto split = SplitPath(path);
  if (!split.ok()) return split.error();
  if (split.value().empty()) return Errno::kEINVAL;  // "/" has no parent

  const std::string name = split.value().back();
  auto parent = ResolvePath(ParentPath(path));
  if (!parent.ok()) return parent.error();
  if (parent.value().inode.type != FileType::kDirectory) {
    return Errno::kENOTDIR;
  }
  return ResolvedParent{parent.value().ino, parent.value().inode, name};
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
// Namespace operations

Result<InodeAttr> Ext2Fs::GetAttr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  InodeAttr attr = ToAttr(res.value().ino, res.value().inode);
  attr.blocks =
      CountAllocatedBlocks(res.value().inode) * (options_.block_size / 512);
  return attr;
}

Result<InodeNum> Ext2Fs::CreateNode(const std::string& path, FileType type,
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
  const std::uint64_t t = NowNs();
  inode.atime_ns = inode.mtime_ns = inode.ctime_ns = t;

  if (type == FileType::kSymlink) {
    auto written = WriteInodeData(inode, 0, AsBytes(symlink_target));
    if (!written.ok()) {
      (void)FreeInode(ino.value());
      return written.error();
    }
  }
  if (Status s = StoreInode(ino.value(), inode); !s.ok()) {
    (void)FreeInode(ino.value());
    return s.error();
  }

  auto updated = entries.value();
  updated.push_back({parent.value().name, ino.value(), type});
  Inode parent_inode = parent.value().parent;
  if (type == FileType::kDirectory) ++parent_inode.nlink;
  if (Status s = StoreDir(parent.value().parent_ino, parent_inode, updated);
      !s.ok()) {
    (void)FreeInode(ino.value());
    return s.error();
  }
  return ino.value();
}

Status Ext2Fs::Mkdir(const std::string& path, Mode mode) {
  auto ino = CreateNode(path, FileType::kDirectory, mode, "");
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Status Ext2Fs::RemoveNode(const std::string& path, bool want_dir) {
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
  } else {
    if (target_inode.type == FileType::kDirectory) return Errno::kEISDIR;
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
    if (Status s = FreeFileBlocks(target_inode, 0); !s.ok()) return s;
    if (target_inode.xattr_block != 0) {
      if (Status s = FreeBlock(target_inode.xattr_block); !s.ok()) return s;
      target_inode.xattr_block = 0;
    }
    if (Status s = FreeInode(victim); !s.ok()) return s;
  } else {
    target_inode.ctime_ns = NowNs();
    if (Status s = StoreInode(victim, target_inode); !s.ok()) return s;
  }
  return Status::Ok();
}

Status Ext2Fs::Rmdir(const std::string& path) {
  if (path == "/") return Errno::kEBUSY;
  return RemoveNode(path, /*want_dir=*/true);
}

Status Ext2Fs::Unlink(const std::string& path) {
  return RemoveNode(path, /*want_dir=*/false);
}

Result<std::vector<DirEntry>> Ext2Fs::ReadDir(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kDirectory) return Errno::kENOTDIR;
  if (!PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                         options_.identity, kROk)) {
    return Errno::kEACCES;
  }
  auto entries = LoadDir(res.value().ino);
  if (!entries.ok()) return entries.error();

  // Update atime (noise the abstraction function must ignore, paper §3.3).
  Inode inode = res.value().inode;
  inode.atime_ns = NowNs();
  if (Status s = StoreInode(res.value().ino, inode); !s.ok()) return s.error();

  std::vector<DirEntry> out;
  out.reserve(entries.value().size());
  for (const auto& e : entries.value()) {
    out.push_back({e.name, e.ino, e.type});
  }
  // Deliberately NOT sorted: real file systems return entries in
  // implementation order, which is why MCFS sorts getdents output before
  // comparing (paper §3.4).
  return out;
}

// ---------------------------------------------------------------------------
// File I/O

Result<FileHandle> Ext2Fs::Open(const std::string& path, std::uint32_t flags,
                                Mode mode) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
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
        want_write ? ((flags & kAccessModeMask) == kRdWr ? (kROk | kWOk)
                                                         : kWOk)
                   : kROk;
    if (!PermissionGranted(ToAttr(ino, inode), options_.identity, want)) {
      return Errno::kEACCES;
    }
    if ((flags & kTrunc) && want_write &&
        inode.type == FileType::kRegular) {
      if (Status s = TruncateInode(inode, 0); !s.ok()) return s.error();
      inode.mtime_ns = NowNs();
      if (Status s = StoreInode(ino, inode); !s.ok()) return s.error();
    }
  }
  const FileHandle fh = next_handle_++;
  open_files_[fh] = OpenFile{ino, flags};
  return fh;
}

Status Ext2Fs::Close(FileHandle fh) {
  if (Status s = CheckMounted(); !s.ok()) return s;
  return open_files_.erase(fh) == 1 ? Status::Ok() : Status(Errno::kEBADF);
}

Result<Bytes> Ext2Fs::Read(FileHandle fh, std::uint64_t offset,
                           std::uint64_t size) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
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

Result<std::uint64_t> Ext2Fs::Write(FileHandle fh, std::uint64_t offset,
                                    ByteView data) {
  if (Status s = CheckMounted(); !s.ok()) return s.error();
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

Status Ext2Fs::Truncate(const std::string& path, std::uint64_t size) {
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

// ---------------------------------------------------------------------------
// Attributes

Status Ext2Fs::Chmod(const std::string& path, Mode mode) {
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

Status Ext2Fs::Chown(const std::string& path, std::uint32_t uid,
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

// ---------------------------------------------------------------------------
// Optional operations

bool Ext2Fs::Supports(FsFeature feature) const {
  switch (feature) {
    case FsFeature::kRename:
    case FsFeature::kHardLink:
    case FsFeature::kSymlink:
    case FsFeature::kAccess:
    case FsFeature::kXattr:
      return true;
    case FsFeature::kCheckpointRestore:
      return false;  // the whole point of the paper: kernel FSes lack this
  }
  return false;
}

Status Ext2Fs::Rename(const std::string& from, const std::string& to) {
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

  // Handle an existing target.
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
    // Drop the replaced target.
    const InodeNum victim = dst_it->ino;
    if (moving.type == FileType::kDirectory) {
      target_inode.nlink = 0;
    } else {
      --target_inode.nlink;
    }
    if (target_inode.nlink == 0) {
      if (Status s = FreeFileBlocks(target_inode, 0); !s.ok()) return s;
      if (target_inode.xattr_block != 0) {
        if (Status s = FreeBlock(target_inode.xattr_block); !s.ok()) return s;
      }
      if (Status s = FreeInode(victim); !s.ok()) return s;
    } else {
      target_inode.ctime_ns = NowNs();
      if (Status s = StoreInode(victim, target_inode); !s.ok()) return s;
    }
    dst_entries.value().erase(dst_it);
  }

  if (same_dir) {
    // Mutate the single entry list: remove source name, add target name.
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

  // Cross-directory: update both entry lists and subdirectory link counts.
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
  // Re-load the destination parent inode: storing the source list may have
  // changed shared metadata (free lists), but the dst inode itself is
  // untouched unless same_dir (handled above).
  auto dst_dir = LoadInode(dst_parent.value().parent_ino);
  if (!dst_dir.ok()) return dst_dir.error();
  Inode dst_inode = dst_dir.value();
  if (moving.type == FileType::kDirectory && !replaced_dir) ++dst_inode.nlink;
  return StoreDir(dst_parent.value().parent_ino, dst_inode,
                  dst_entries.value());
}

Status Ext2Fs::Link(const std::string& existing, const std::string& link) {
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

Status Ext2Fs::Symlink(const std::string& target, const std::string& link) {
  if (target.empty() || target.size() > kPathMax) return Errno::kEINVAL;
  auto ino = CreateNode(link, FileType::kSymlink, 0777, target);
  return ino.ok() ? Status::Ok() : Status(ino.error());
}

Result<std::string> Ext2Fs::ReadLink(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (res.value().inode.type != FileType::kSymlink) return Errno::kEINVAL;
  auto data =
      ReadInodeData(res.value().inode, 0, res.value().inode.size);
  if (!data.ok()) return data.error();
  return std::string(AsString(data.value()));
}

Status Ext2Fs::Access(const std::string& path, std::uint32_t mode) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  if (mode == kFOk) return Status::Ok();
  return PermissionGranted(ToAttr(res.value().ino, res.value().inode),
                           options_.identity, mode)
             ? Status::Ok()
             : Status(Errno::kEACCES);
}

// ---------------------------------------------------------------------------
// Xattrs (single xattr block per inode)

Result<Ext2Fs::XattrMap> Ext2Fs::LoadXattrs(const Inode& inode) {
  XattrMap out;
  if (inode.xattr_block == 0) return out;
  auto raw = ReadBlock(inode.xattr_block);
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

Status Ext2Fs::StoreXattrs(Inode& inode, const XattrMap& xattrs) {
  if (xattrs.empty()) {
    if (inode.xattr_block != 0) {
      if (Status s = FreeBlock(inode.xattr_block); !s.ok()) return s;
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
    auto alloc = AllocBlock();
    if (!alloc.ok()) return alloc.error();
    inode.xattr_block = alloc.value();
  }
  return WriteBlock(inode.xattr_block, w.bytes());
}

Status Ext2Fs::SetXattr(const std::string& path, const std::string& name,
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

Result<Bytes> Ext2Fs::GetXattr(const std::string& path,
                               const std::string& name) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  auto it = xattrs.value().find(name);
  if (it == xattrs.value().end()) return Errno::kENODATA;
  return it->second;
}

Result<std::vector<std::string>> Ext2Fs::ListXattr(const std::string& path) {
  auto res = ResolvePath(path);
  if (!res.ok()) return res.error();
  auto xattrs = LoadXattrs(res.value().inode);
  if (!xattrs.ok()) return xattrs.error();
  std::vector<std::string> names;
  names.reserve(xattrs.value().size());
  for (const auto& [name, value] : xattrs.value()) names.push_back(name);
  return names;
}

Status Ext2Fs::RemoveXattr(const std::string& path, const std::string& name) {
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
