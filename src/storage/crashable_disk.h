// CrashableDisk: a crash-state recorder decorating any BlockDevice.
//
// Between Flush() barriers the wrapper journals every write's post-image.
// A *crash state* is the durable image as of the last barrier plus some
// legal subset of the in-flight journal:
//   * kOrdered      — the device persists writes in issue order, so only
//                     journal prefixes are reachable (n+1 states).
//   * kReorderable  — the device may persist any subset (2^n states,
//                     deduplicated; sampled under a cap).
// Either way no write ever survives a barrier it preceded: the journal is
// emptied into the durable image at each successful Flush(), so only
// post-barrier writes are droppable. This is the B3 crash model (PAPERS.md)
// specialized to whole-write granularity.
//
// The durable image is digested chunk-wise for StateDigest: the recorder
// keeps the MD5 of every kChunkBytes chunk of it, and the durable digest
// is the MD5 over that table, so a barrier re-hashes only the chunks its
// journal touched. Crash states are deduplicated by comparing their
// images, not by digest.
//
// The durable image and every crash state's image are BlockImages, so a
// chunk is one image block: a snapshot shares the durable image instead
// of copying it, and a crash state copies only the blocks its writes
// touch.
//
// JFFS2 programs its MTD directly, bypassing the block shim, so for that
// stack the wrapper doubles as an MtdWriteObserver: raw Program/EraseBlock
// post-images and fsync barriers arrive via the observer hooks instead of
// Write()/Flush().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/block_device.h"
#include "storage/mtd_device.h"
#include "util/bytes.h"

namespace mcfs::storage {

enum class BarrierModel { kOrdered, kReorderable };

struct CrashStateOptions {
  BarrierModel barrier_model = BarrierModel::kReorderable;
  // Cap on generated states. When the legal space is larger, a seeded
  // sample is drawn that always includes the empty and full subsets
  // (the two states every barrier model agrees on).
  std::size_t max_states = 64;
  std::uint64_t seed = 1;
};

// Everything a CrashableDisk records beside its durable image. Its
// snapshots share the disk's copy (DeviceSnapshot::recorder), which the
// disk copies before it changes it, so a snapshot's image plus this is
// the recorder's whole state as of the snapshot.
struct CrashRecorderState {
  struct Write {
    std::uint64_t offset = 0;
    Bytes after;  // post-image
  };

  Bytes chunk_table;                 // MD5 of each durable chunk, in order
  std::uint64_t durable_digest = 0;  // MD5 over chunk_table, low 64 bits
  std::uint64_t barriers = 0;
  std::vector<Write> journal;        // in-flight writes, issue order
};

struct CrashState {
  BlockImage image;                   // device contents at the crash
  std::vector<std::size_t> applied;   // journal indices applied, ascending
  std::size_t pending_total = 0;      // journal size at the crash point
  std::string Describe() const;
};

class CrashableDisk final : public BlockDevice, public MtdWriteObserver {
 public:
  // Granularity of the durable image's digest table: one image block.
  static constexpr std::size_t kChunkBytes = kCowBlockSize;

  explicit CrashableDisk(BlockDevicePtr inner);
  ~CrashableDisk() override;

  // jffs2f stack: observe raw MTD programs/erases and fsync barriers.
  // The wrapper keeps the device alive and detaches itself on destruction.
  void AttachMtd(std::shared_ptr<MtdDevice> mtd);

  // BlockDevice ------------------------------------------------------------
  std::uint64_t size_bytes() const override { return inner_->size_bytes(); }
  std::uint32_t block_size() const override { return inner_->block_size(); }
  Status Read(std::uint64_t offset, std::span<std::uint8_t> out) override {
    return inner_->Read(offset, out);
  }
  Status Scan(std::uint64_t offset, std::uint64_t n) override {
    return inner_->Scan(offset, n);
  }
  Status Write(std::uint64_t offset, ByteView data) override;
  Status Flush() override;
  // Snapshots carry the recorder's whole state (durable image, digest
  // table, journal, barrier count), not just the current contents, so
  // explorer rollbacks restore the recorder to the exact persistence
  // state too. A snapshot shares the disk's durable image and recorder
  // state, and a restore assigns them back. A snapshot without
  // recorder state, or whose image or recorder state is of another
  // disk size, returns EINVAL and changes nothing.
  DeviceSnapshot SnapshotContents() const override;
  Status RestoreContents(const DeviceSnapshot& contents) override;
  const DeviceStats& stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name() + "+crash"; }

  // MtdWriteObserver -------------------------------------------------------
  void OnMtdWrite(std::uint64_t offset, ByteView after) override;
  Status OnMtdBarrier() override;

  // Crash-state generation -------------------------------------------------
  // Calls `visit` with each crash state in candidate order and stops early
  // when it returns false. States with identical images are visited once,
  // the first in candidate order: each candidate's image is built and
  // compared with the images already visited in this call, which stay
  // alive, sharing their blocks, until it returns. A visitor may write
  // into the image it gets; a shared block is cloned first.
  void VisitCrashStates(const CrashStateOptions& options,
                        const std::function<bool(CrashState)>& visit) const;
  // Every state VisitCrashStates visits, collected.
  std::vector<CrashState> EnumerateCrashStates(
      const CrashStateOptions& options) const;

  // Fault injection: the next `count` barriers fail with EIO and commit
  // nothing (the journal stays in flight).
  void InjectFlushErrors(std::uint64_t count) { injected_flush_errors_ = count; }

  // Promote everything currently in flight to durable without a device
  // barrier — used once at harness setup so mkfs/equalization writes are
  // part of the durable baseline rather than phantom in-flight writes.
  void MarkClean();

  // Digest of (durable image, journal, barrier count): two live-identical
  // states with different persistence futures must not hash-dedup.
  std::uint64_t StateDigest() const;

  std::size_t pending_writes() const { return state_->journal.size(); }
  std::uint64_t barriers() const { return state_->barriers; }
  const BlockImage& durable_image() const { return durable_; }

 private:
  void RecordWrite(std::uint64_t offset, ByteView after);
  void CommitBarrier();
  // The recorder state, ready to change: copied first if a snapshot
  // still shares it, so a snapshot's state never changes under it.
  CrashRecorderState& MutState();
  BlockImage ImageWithSubset(const std::vector<std::size_t>& applied) const;

  BlockDevicePtr inner_;
  std::shared_ptr<MtdDevice> mtd_;   // set iff observing a raw MTD
  BlockImage durable_;               // image as of the last barrier
  std::shared_ptr<const CrashRecorderState> state_;
  std::uint64_t injected_flush_errors_ = 0;
};

}  // namespace mcfs::storage
