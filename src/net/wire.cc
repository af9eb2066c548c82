#include "net/wire.h"

#include <stdexcept>

namespace mcfs::net {

namespace {

// Every decoder body runs under this: ByteReader throws out_of_range on
// truncation, which is a peer-corruption condition here, not a
// programming error — fold it to kEINVAL.
template <typename T, typename Fn>
Result<T> Guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::out_of_range&) {
    return Errno::kEINVAL;
  }
}

// Bounds a declared element count against the bytes actually left, so a
// hostile count can't size an allocation (hash_table.cc hardening
// pattern).
bool CountFits(const ByteReader& r, std::uint64_t count,
               std::size_t elem_size) {
  return count <= r.remaining() / elem_size;
}

std::vector<bool> GetFlags(ByteReader& r) {
  const std::uint32_t n = r.GetU32();
  if (!CountFits(r, n, 1)) throw std::out_of_range("flag count");
  std::vector<bool> flags;
  flags.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) flags.push_back(r.GetU8() != 0);
  return flags;
}

void PutFlags(ByteWriter& w, const std::vector<bool>& flags) {
  w.PutU32(static_cast<std::uint32_t>(flags.size()));
  for (bool f : flags) w.PutU8(f ? 1 : 0);
}

std::vector<std::uint32_t> GetU32List(ByteReader& r) {
  const std::uint32_t n = r.GetU32();
  if (!CountFits(r, n, 4)) throw std::out_of_range("u32 count");
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.GetU32());
  return out;
}

void PutU32List(ByteWriter& w, const std::vector<std::uint32_t>& list) {
  w.PutU32(static_cast<std::uint32_t>(list.size()));
  for (std::uint32_t v : list) w.PutU32(v);
}

}  // namespace

void PutDigest(ByteWriter& w, const Md5Digest& digest) {
  w.PutBytes(ByteView(digest.bytes.data(), digest.bytes.size()));
}

Result<Md5Digest> GetDigest(ByteReader& r) {
  return Guarded<Md5Digest>([&] {
    Md5Digest digest;
    ByteView b = r.GetBytes(digest.bytes.size());
    std::copy(b.begin(), b.end(), digest.bytes.begin());
    return Result<Md5Digest>(digest);
  });
}

Bytes EncodeDigestList(std::span<const Md5Digest> digests) {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(digests.size()));
  for (const Md5Digest& d : digests) PutDigest(w, d);
  return w.Take();
}

Result<std::vector<Md5Digest>> DecodeDigestList(ByteView payload) {
  return Guarded<std::vector<Md5Digest>>(
      [&]() -> Result<std::vector<Md5Digest>> {
        ByteReader r(payload);
        const std::uint32_t n = r.GetU32();
        if (!CountFits(r, n, 16)) return Errno::kEINVAL;
        std::vector<Md5Digest> digests;
        digests.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          auto d = GetDigest(r);
          if (!d.ok()) return d.error();
          digests.push_back(d.value());
        }
        return digests;
      });
}

Bytes EncodeInsertResponse(const InsertBatchResponse& rsp) {
  ByteWriter w;
  w.PutU64(rsp.store_size);
  w.PutU64(rsp.store_bytes);
  w.PutU64(rsp.resize_count);
  w.PutU32(rsp.resize_events);
  w.PutU64(rsp.rehashed);
  PutFlags(w, rsp.inserted);
  return w.Take();
}

Result<InsertBatchResponse> DecodeInsertResponse(ByteView payload) {
  return Guarded<InsertBatchResponse>([&] {
    ByteReader r(payload);
    InsertBatchResponse rsp;
    rsp.store_size = r.GetU64();
    rsp.store_bytes = r.GetU64();
    rsp.resize_count = r.GetU64();
    rsp.resize_events = r.GetU32();
    rsp.rehashed = r.GetU64();
    rsp.inserted = GetFlags(r);
    return Result<InsertBatchResponse>(std::move(rsp));
  });
}

Bytes EncodeContainsResponse(const ContainsBatchResponse& rsp) {
  ByteWriter w;
  w.PutU64(rsp.store_size);
  w.PutU64(rsp.store_bytes);
  w.PutU64(rsp.resize_count);
  PutFlags(w, rsp.present);
  return w.Take();
}

Result<ContainsBatchResponse> DecodeContainsResponse(ByteView payload) {
  return Guarded<ContainsBatchResponse>([&] {
    ByteReader r(payload);
    ContainsBatchResponse rsp;
    rsp.store_size = r.GetU64();
    rsp.store_bytes = r.GetU64();
    rsp.resize_count = r.GetU64();
    rsp.present = GetFlags(r);
    return Result<ContainsBatchResponse>(std::move(rsp));
  });
}

Bytes EncodeStoreStats(const StoreStats& stats) {
  ByteWriter w;
  w.PutU64(stats.size);
  w.PutU64(stats.bytes);
  w.PutU64(stats.resize_count);
  return w.Take();
}

Result<StoreStats> DecodeStoreStats(ByteView payload) {
  return Guarded<StoreStats>([&] {
    ByteReader r(payload);
    StoreStats stats;
    stats.size = r.GetU64();
    stats.bytes = r.GetU64();
    stats.resize_count = r.GetU64();
    return Result<StoreStats>(stats);
  });
}

Bytes EncodeDumpRequest(const DumpRequest& req) {
  ByteWriter w;
  w.PutU64(req.offset);
  w.PutU32(req.max_digests);
  return w.Take();
}

Result<DumpRequest> DecodeDumpRequest(ByteView payload) {
  return Guarded<DumpRequest>([&] {
    ByteReader r(payload);
    DumpRequest req;
    req.offset = r.GetU64();
    req.max_digests = r.GetU32();
    return Result<DumpRequest>(req);
  });
}

Bytes EncodeDumpResponse(const DumpResponse& rsp) {
  ByteWriter w;
  w.PutU64(rsp.total);
  w.PutU32(static_cast<std::uint32_t>(rsp.digests.size()));
  for (const Md5Digest& d : rsp.digests) PutDigest(w, d);
  return w.Take();
}

Result<DumpResponse> DecodeDumpResponse(ByteView payload) {
  return Guarded<DumpResponse>([&]() -> Result<DumpResponse> {
    ByteReader r(payload);
    DumpResponse rsp;
    rsp.total = r.GetU64();
    const std::uint32_t n = r.GetU32();
    if (!CountFits(r, n, 16)) return Errno::kEINVAL;
    rsp.digests.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto d = GetDigest(r);
      if (!d.ok()) return d.error();
      rsp.digests.push_back(d.value());
    }
    return rsp;
  });
}

void PutFrontierEntry(ByteWriter& w, const mc::FrontierEntry& entry) {
  w.PutU64(entry.tag);
  PutDigest(w, entry.digest);
  PutU32List(w, entry.trail);
  PutU32List(w, entry.pending);
}

Result<mc::FrontierEntry> GetFrontierEntry(ByteReader& r) {
  return Guarded<mc::FrontierEntry>([&]() -> Result<mc::FrontierEntry> {
    mc::FrontierEntry entry;
    entry.tag = r.GetU64();
    auto d = GetDigest(r);
    if (!d.ok()) return d.error();
    entry.digest = d.value();
    entry.trail = GetU32List(r);
    entry.pending = GetU32List(r);
    return entry;
  });
}

Bytes EncodeFrontierEntry(const mc::FrontierEntry& entry) {
  ByteWriter w;
  PutFrontierEntry(w, entry);
  return w.Take();
}

Result<mc::FrontierEntry> DecodeFrontierEntry(ByteView payload) {
  ByteReader r(payload);
  return GetFrontierEntry(r);
}

Bytes EncodeStealRequest(const StealRequest& req, bool with_timeout) {
  ByteWriter w;
  w.PutU32(req.worker);
  if (with_timeout) w.PutU32(req.timeout_ms);
  return w.Take();
}

Result<StealRequest> DecodeStealRequest(ByteView payload, bool with_timeout) {
  return Guarded<StealRequest>([&] {
    ByteReader r(payload);
    StealRequest req;
    req.worker = r.GetU32();
    if (with_timeout) req.timeout_ms = r.GetU32();
    return Result<StealRequest>(req);
  });
}

Bytes EncodeStealResponse(const StealResponse& rsp) {
  ByteWriter w;
  w.PutU8(rsp.outcome);
  if (rsp.entry.has_value()) PutFrontierEntry(w, *rsp.entry);
  return w.Take();
}

Result<StealResponse> DecodeStealResponse(ByteView payload) {
  return Guarded<StealResponse>([&]() -> Result<StealResponse> {
    ByteReader r(payload);
    StealResponse rsp;
    rsp.outcome = r.GetU8();
    if (rsp.outcome == kStealEntry) {
      auto entry = GetFrontierEntry(r);
      if (!entry.ok()) return entry.error();
      rsp.entry = std::move(entry.value());
    }
    return rsp;
  });
}

Bytes EncodeFrontierStats(const FrontierStats& stats) {
  ByteWriter w;
  w.PutU64(stats.size);
  w.PutU64(stats.peak);
  w.PutU64(stats.pushed);
  w.PutU64(stats.stolen);
  return w.Take();
}

Result<FrontierStats> DecodeFrontierStats(ByteView payload) {
  return Guarded<FrontierStats>([&] {
    ByteReader r(payload);
    FrontierStats stats;
    stats.size = r.GetU64();
    stats.peak = r.GetU64();
    stats.pushed = r.GetU64();
    stats.stolen = r.GetU64();
    return Result<FrontierStats>(stats);
  });
}

Bytes EncodeError(Errno error) {
  ByteWriter w;
  w.PutU32(static_cast<std::uint32_t>(static_cast<std::int32_t>(error)));
  return w.Take();
}

Errno DecodeError(ByteView payload) {
  try {
    ByteReader r(payload);
    return static_cast<Errno>(static_cast<std::int32_t>(r.GetU32()));
  } catch (const std::out_of_range&) {
    return Errno::kEIO;
  }
}

}  // namespace mcfs::net
