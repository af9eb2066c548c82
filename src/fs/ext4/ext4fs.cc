#include "fs/ext4/ext4fs.h"

#include "util/md5.h"

namespace mcfs::fs {

namespace {

Ext2Options ToExt2Options(const Ext4Options& o) {
  Ext2Options out;
  out.block_size = o.block_size;
  out.inode_count = o.inode_count;
  out.create_lost_and_found = true;
  out.journal_blocks = o.journal_blocks;
  out.cache_capacity_blocks = o.cache_capacity_blocks;
  out.identity = o.identity;
  out.type_name = "ext4f";
  out.bug_ack_before_journal_commit = o.bug_ack_before_journal_commit;
  return out;
}

}  // namespace

Ext4Fs::Ext4Fs(storage::BlockDevicePtr device, Ext4Options options)
    : Ext2Fs(std::move(device), ToExt2Options(options)) {}

std::uint32_t Ext4Fs::journal_start() const {
  return data_region_start() - options_.journal_blocks;
}

Result<Bytes> Ext4Fs::ExportMountState() const {
  auto base = Ext2Fs::ExportMountState();
  if (!base.ok()) return base.error();
  ByteWriter w;
  w.PutBlob(base.value());
  w.PutU64(journal_seq_);
  return w.Take();
}

Status Ext4Fs::ImportMountState(ByteView image) {
  // Both fields parse before either is applied, so a truncated blob
  // changes nothing.
  Bytes base;
  std::uint64_t journal_seq = 0;
  try {
    ByteReader r(image);
    base = r.GetBlob();
    journal_seq = r.GetU64();
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
  if (Status s = Ext2Fs::ImportMountState(base); !s.ok()) return s;
  journal_seq_ = journal_seq;
  return Status::Ok();
}

void Ext4Fs::CrashNow() {
  mounted_ = false;
  cache_.clear();
  cache_dirty_.clear();
  open_files_.clear();
}

// Journal layout within [journal_start, journal_start + journal_blocks):
//   block 0:   header  {magic, seq, nblocks, home block numbers...}
//   block 1..n: block images
//   block n+1: commit  {magic, seq, md5(images || home numbers)}
// A transaction larger than journal_blocks - 2 images is checkpointed
// directly (journaling skipped); real ext4 similarly bounds transactions
// by journal size.
Status Ext4Fs::WriteTransaction(const std::map<std::uint32_t, Bytes>& dirty) {
  const std::uint32_t capacity = options_.journal_blocks;
  if (capacity < 3 || dirty.size() > capacity - 2) return Status::Ok();

  ++journal_seq_;
  const std::uint32_t bs = options_.block_size;
  const std::uint32_t js = journal_start();

  Md5 md5;
  ByteWriter header;
  header.PutU32(kJournalMagic);
  header.PutU64(journal_seq_);
  header.PutU32(static_cast<std::uint32_t>(dirty.size()));
  for (const auto& [block, image] : dirty) {
    header.PutU32(block);
    md5.UpdateU64(block);
    md5.Update(image);
  }
  Bytes header_block = header.Take();
  header_block.resize(bs, 0);
  if (Status s =
          device_->Write(static_cast<std::uint64_t>(js) * bs, header_block);
      !s.ok()) {
    return s;
  }

  std::uint32_t slot = 1;
  for (const auto& [block, image] : dirty) {
    if (Status s = device_->Write(
            static_cast<std::uint64_t>(js + slot) * bs, image);
        !s.ok()) {
      return s;
    }
    ++slot;
  }

  ByteWriter commit;
  commit.PutU32(kJournalMagic);
  commit.PutU64(journal_seq_);
  const Md5Digest digest = md5.Final();
  commit.PutBytes(ByteView(digest.bytes.data(), digest.bytes.size()));
  Bytes commit_block = commit.Take();
  commit_block.resize(bs, 0);
  if (Status s = device_->Write(
          static_cast<std::uint64_t>(js + slot) * bs, commit_block);
      !s.ok()) {
    return s;
  }
  if (!ack_without_barrier_) {
    if (Status s = device_->Flush(); !s.ok()) return s;
  }
  ++journal_commits_;
  return Status::Ok();
}

Status Ext4Fs::ClearJournal() {
  const std::uint32_t bs = options_.block_size;
  const Bytes zero(bs, 0);
  return device_->Write(
      static_cast<std::uint64_t>(journal_start()) * bs, zero);
}

Status Ext4Fs::PrepareFlush(const std::map<std::uint32_t, Bytes>& dirty) {
  if (Status s = WriteTransaction(dirty); !s.ok()) return s;
  if (crash_after_commit_) {
    crash_after_commit_ = false;
    return Errno::kEIO;  // stop FlushCache before checkpointing
  }
  return Status::Ok();
}

Status Ext4Fs::FinishFlush() { return ClearJournal(); }

Status Ext4Fs::RecoverOnMount() {
  replayed_ = false;
  const std::uint32_t bs = options_.block_size;
  // Reconstruct geometry from our own options: mount hasn't read the
  // superblock yet, but journal placement depends only on the options.
  const std::uint32_t js = journal_start();

  Bytes header(bs);
  if (Status s =
          device_->Read(static_cast<std::uint64_t>(js) * bs, header);
      !s.ok()) {
    return s;
  }
  ByteReader r(header);
  if (r.GetU32() != kJournalMagic) return Status::Ok();  // empty journal
  const std::uint64_t seq = r.GetU64();
  const std::uint32_t nblocks = r.GetU32();
  if (nblocks == 0 || nblocks > options_.journal_blocks - 2) {
    return Status::Ok();  // garbage header; treat as empty
  }
  std::vector<std::uint32_t> homes(nblocks);
  for (auto& h : homes) h = r.GetU32();

  // Validate the commit record.
  Bytes commit(bs);
  if (Status s = device_->Read(
          static_cast<std::uint64_t>(js + 1 + nblocks) * bs, commit);
      !s.ok()) {
    return s;
  }
  ByteReader cr(commit);
  if (cr.GetU32() != kJournalMagic || cr.GetU64() != seq) {
    return Status::Ok();  // uncommitted transaction; discard
  }
  Md5Digest recorded;
  ByteView digest_bytes = cr.GetBytes(16);
  std::copy(digest_bytes.begin(), digest_bytes.end(),
            recorded.bytes.begin());

  Md5 md5;
  std::vector<Bytes> images;
  images.reserve(nblocks);
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    Bytes image(bs);
    if (Status s = device_->Read(
            static_cast<std::uint64_t>(js + 1 + i) * bs, image);
        !s.ok()) {
      return s;
    }
    md5.UpdateU64(homes[i]);
    md5.Update(image);
    images.push_back(std::move(image));
  }
  if (md5.Final() != recorded) return Status::Ok();  // torn write; discard

  // Replay.
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    if (Status s = device_->Write(
            static_cast<std::uint64_t>(homes[i]) * bs, images[i]);
        !s.ok()) {
      return s;
    }
  }
  if (Status s = device_->Flush(); !s.ok()) return s;
  replayed_ = true;
  return ClearJournal();
}

}  // namespace mcfs::fs
