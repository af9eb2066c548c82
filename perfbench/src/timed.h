// Decorators that time the model checker's layer boundaries from the
// outside: TimedSystem sits between mc::Explorer and SyscallEngine,
// TimedStore between the explorer and a (remote) visited store. Each
// forwards every call unchanged and brackets the costly ones in a span.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mc/state.h"
#include "mc/visited_store.h"
#include "mcfs/syscall_engine.h"
#include "tracer.h"

namespace perfbench {

class TimedSystem final : public mcfs::mc::System {
 public:
  explicit TimedSystem(mcfs::core::SyscallEngine& engine) : engine_(engine) {
    Tracer& t = Tracer::Get();
    apply_ = t.Name("mcfs.engine.apply");
    save_ = t.Name("mcfs.engine.save");
    restore_ = t.Name("mcfs.engine.restore");
    discard_ = t.Name("mcfs.engine.discard");
    hash_ = t.Name("mcfs.engine.hash");
    crash_ = t.Name("mcfs.engine.crash_check");
  }

  std::size_t ActionCount() const override { return engine_.ActionCount(); }
  std::string ActionName(std::size_t action) const override {
    return engine_.ActionName(action);
  }
  mcfs::Status ApplyAction(std::size_t action) override {
    Scope scope(apply_);
    return engine_.ApplyAction(action);
  }
  bool violation_detected() const override {
    return engine_.violation_detected();
  }
  std::string violation_report() const override {
    return engine_.violation_report();
  }
  mcfs::Md5Digest AbstractHash() override {
    Scope scope(hash_);
    return engine_.AbstractHash();
  }
  mcfs::Result<mcfs::mc::SnapshotId> SaveConcrete() override {
    auto id = [this] {
      Scope scope(save_);
      return engine_.SaveConcrete();
    }();
    NotePoolSize();
    return id;
  }
  mcfs::Status RestoreConcrete(mcfs::mc::SnapshotId id) override {
    Scope scope(restore_);
    return engine_.RestoreConcrete(id);
  }
  mcfs::Status DiscardConcrete(mcfs::mc::SnapshotId id) override {
    const mcfs::Status status = [this, id] {
      Scope scope(discard_);
      return engine_.DiscardConcrete(id);
    }();
    NotePoolSize();
    return status;
  }
  std::uint64_t ConcreteStateBytes() const override {
    return engine_.ConcreteStateBytes();
  }
  mcfs::Status CrashCheck() override {
    Scope scope(crash_);
    return engine_.CrashCheck();
  }
  mcfs::mc::ActionFootprint StaticActionFootprint(
      std::size_t action) const override {
    return engine_.StaticActionFootprint(action);
  }

  // Peak of the engine's sampled exclusive snapshot-pool bytes.
  std::uint64_t exclusive_bytes_peak() const { return exclusive_peak_; }

 private:
  void NotePoolSize() {
    exclusive_peak_ = std::max(exclusive_peak_,
                               engine_.counters().snapshot_exclusive_bytes);
  }

  mcfs::core::SyscallEngine& engine_;
  std::uint32_t apply_ = 0, save_ = 0, restore_ = 0, discard_ = 0, hash_ = 0,
                crash_ = 0;
  std::uint64_t exclusive_peak_ = 0;
};

class TimedStore final : public mcfs::mc::VisitedStore {
 public:
  explicit TimedStore(mcfs::mc::VisitedStore& inner)
      : inner_(inner), insert_(Tracer::Get().Name("net.store.insert")) {}

  mcfs::mc::StoreInsert Insert(const mcfs::Md5Digest& digest) override {
    Scope scope(insert_);
    return inner_.Insert(digest);
  }
  // The explorer only inserts; lookups pass through untimed.
  bool Contains(const mcfs::Md5Digest& digest) const override {
    return inner_.Contains(digest);
  }
  std::vector<mcfs::mc::StoreInsert> InsertBatch(
      std::span<const mcfs::Md5Digest> digests) override {
    Scope scope(insert_);
    return inner_.InsertBatch(digests);
  }
  std::vector<bool> ContainsBatch(
      std::span<const mcfs::Md5Digest> digests) const override {
    return inner_.ContainsBatch(digests);
  }
  bool ForEachDigest(
      const std::function<void(const mcfs::Md5Digest&)>& fn) const override {
    return inner_.ForEachDigest(fn);
  }
  std::uint64_t size() const override { return inner_.size(); }
  std::uint64_t bytes_used() const override { return inner_.bytes_used(); }
  std::uint64_t resize_count() const override { return inner_.resize_count(); }
  mcfs::mc::RemoteHealth health() const override { return inner_.health(); }

 private:
  mcfs::mc::VisitedStore& inner_;
  const std::uint32_t insert_;
};

}  // namespace perfbench
