// Bitstate (supertrace) hashing, Spin-style.
//
// When the full visited table cannot fit in memory, Spin's -DBITSTATE
// mode stores k hash-derived bits per state instead of the state digest.
// Membership answers can false-positive (a genuinely new state looks
// visited), trading completeness for memory — the standard big-state-
// space fallback the paper's swarm mode builds on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "mc/visited_store.h"
#include "util/md5.h"

namespace mcfs::mc {

// The bitstate filter, for a solo explorer and for a cooperative swarm
// alike: k probe bits per state over std::atomic words. Insert is a
// relaxed fetch_or per probe bit — lock-free, and safe to hammer from
// every worker at once. The price of relaxed ordering is benign
// double-counting: two workers setting the *same* previously-clear bit
// in the same instant can both see it as new, so size() may slightly
// overcount distinct states (the membership bits themselves are exact —
// fetch_or is atomic). On one thread the answers are exact.
class ConcurrentBitstateFilter final : public VisitedStore {
 public:
  // `bits` is rounded up to a power of two (at least 64). k is the number
  // of probe bits per state (Spin's default is 2, hence "double-bit
  // hashing").
  explicit ConcurrentBitstateFilter(std::uint64_t bits = 1ull << 20,
                                    int k = 2);

  // Marks the state visited; `inserted` is set if it was (apparently)
  // new — i.e., at least one of its probe bits was previously unset.
  StoreInsert Insert(const Md5Digest& digest) override;
  bool Contains(const Md5Digest& digest) const override;

  // Apparently-new states inserted (see class comment on overcounting).
  std::uint64_t size() const override {
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_used() const override { return word_count_ * 8; }
  std::uint64_t resize_count() const override { return 0; }  // fixed size

  std::uint64_t bits() const { return bit_count_; }
  std::uint64_t bits_set() const {
    return bits_set_.load(std::memory_order_relaxed);
  }
  // Expected false-positive probability at the current fill level.
  double EstimatedFalsePositiveRate() const;

 private:
  std::uint64_t Probe(const Md5Digest& digest, int which) const;

  std::uint64_t bit_count_;
  int k_;
  std::uint64_t word_count_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  std::atomic<std::uint64_t> bits_set_{0};
  std::atomic<std::uint64_t> states_{0};
};

}  // namespace mcfs::mc
