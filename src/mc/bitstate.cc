#include "mc/bitstate.h"

#include <bit>
#include <cmath>

namespace mcfs::mc {

ConcurrentBitstateFilter::ConcurrentBitstateFilter(std::uint64_t bits, int k)
    : bit_count_(std::bit_ceil(std::max<std::uint64_t>(bits, 64))),
      k_(k),
      word_count_(bit_count_ / 64),
      words_(new std::atomic<std::uint64_t>[word_count_]) {
  for (std::uint64_t i = 0; i < word_count_; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

std::uint64_t ConcurrentBitstateFilter::Probe(const Md5Digest& digest,
                                              int which) const {
  // Derive independent probes from disjoint digest halves (Kirsch-
  // Mitzenmacher double hashing).
  const std::uint64_t h1 = digest.lo64();
  const std::uint64_t h2 = digest.hi64() | 1;  // odd, so probes cycle fully
  return (h1 + static_cast<std::uint64_t>(which) * h2) & (bit_count_ - 1);
}

StoreInsert ConcurrentBitstateFilter::Insert(const Md5Digest& digest) {
  StoreInsert out;
  std::uint64_t newly_set = 0;
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = Probe(digest, i);
    const std::uint64_t mask = 1ull << (bit % 64);
    const std::uint64_t prev =
        words_[bit / 64].fetch_or(mask, std::memory_order_relaxed);
    if (!(prev & mask)) ++newly_set;
  }
  if (newly_set > 0) {
    out.inserted = true;
    bits_set_.fetch_add(newly_set, std::memory_order_relaxed);
    states_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

bool ConcurrentBitstateFilter::Contains(const Md5Digest& digest) const {
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = Probe(digest, i);
    const std::uint64_t mask = 1ull << (bit % 64);
    if (!(words_[bit / 64].load(std::memory_order_relaxed) & mask)) {
      return false;
    }
  }
  return true;
}

double ConcurrentBitstateFilter::EstimatedFalsePositiveRate() const {
  const double fill = static_cast<double>(bits_set()) /
                      static_cast<double>(bit_count_);
  return std::pow(fill, k_);
}

}  // namespace mcfs::mc
