// Byte-buffer helpers: a growable output writer and a bounds-checked reader,
// used for file-system snapshots, on-disk structures, and trace serialization.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcfs {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

inline ByteView AsBytes(std::string_view s) {
  return ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

inline std::string_view AsString(ByteView b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

// Little-endian append-only writer.
class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(v); }

  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutI64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v)); }

  void PutBytes(ByteView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  void PutString(std::string_view s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutBytes(AsBytes(s));
  }

  void PutBlob(ByteView b) {
    PutU64(b.size());
    PutBytes(b);
  }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

// Bounds-checked little-endian reader. Throws std::out_of_range on
// truncated input — snapshot/trace corruption is a programming error in
// this library, not an expected condition.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) : data_(data) {}

  std::uint8_t GetU8() { return GetLe<std::uint8_t>(); }
  std::uint16_t GetU16() { return GetLe<std::uint16_t>(); }
  std::uint32_t GetU32() { return GetLe<std::uint32_t>(); }
  std::uint64_t GetU64() { return GetLe<std::uint64_t>(); }
  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }

  ByteView GetBytes(std::size_t n) {
    Require(n);
    ByteView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string GetString() {
    const std::uint32_t n = GetU32();
    ByteView b = GetBytes(n);
    return std::string(AsString(b));
  }

  Bytes GetBlob() {
    const std::uint64_t n = GetU64();
    ByteView b = GetBytes(static_cast<std::size_t>(n));
    return Bytes(b.begin(), b.end());
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T GetLe() {
    Require(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  // Compared against what is left rather than as pos_ + n, which wraps
  // for an untrusted 64-bit length near SIZE_MAX.
  void Require(std::size_t n) const {
    if (n > data_.size() - pos_) {
      throw std::out_of_range("ByteReader: truncated input");
    }
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace mcfs
