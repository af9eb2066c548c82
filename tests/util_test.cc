// Unit tests for the util layer: MD5 (against RFC 1321 vectors, and its
// 4 KB chunk batch against one-shot hashes), CRC-32C,
// Result, byte serialization, deterministic RNG, and the simulated clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/md5.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace mcfs {
namespace {

// ---------------------------------------------------------------------------
// MD5: the RFC 1321 appendix test suite.

struct Md5Vector {
  const char* input;
  const char* hex;
};

class Md5VectorTest : public testing::TestWithParam<Md5Vector> {};

TEST_P(Md5VectorTest, MatchesRfc1321) {
  const Md5Vector& v = GetParam();
  EXPECT_EQ(Md5::Hash(std::string_view(v.input)).ToHex(), v.hex);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5VectorTest,
    testing::Values(
        Md5Vector{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Md5Vector{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Md5Vector{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Md5Vector{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Md5Vector{"abcdefghijklmnopqrstuvwxyz",
                  "c3fcd3d76192e4007dfb496cca67e13b"},
        Md5Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                  "56789",
                  "d174ab98d277d9f5a5611c2c9f419d9f"},
        Md5Vector{"1234567890123456789012345678901234567890123456789012345678"
                  "9012345678901234567890",
                  "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5Test, IncrementalMatchesOneShot) {
  const std::string payload(1000, 'x');
  Md5 ctx;
  // Feed in awkward chunk sizes to cross the 64-byte block boundary.
  std::size_t offset = 0;
  for (std::size_t chunk : {1ul, 63ul, 64ul, 65ul, 130ul, 677ul}) {
    ctx.Update(std::string_view(payload).substr(offset, chunk));
    offset += chunk;
  }
  ctx.Update(std::string_view(payload).substr(offset));
  EXPECT_EQ(ctx.Final(), Md5::Hash(payload));
}

TEST(Md5Test, DigestHalvesDiffer) {
  const Md5Digest d = Md5::Hash(std::string_view("hello"));
  EXPECT_NE(d.lo64(), 0u);
  EXPECT_NE(d.hi64(), 0u);
  EXPECT_NE(d.lo64(), d.hi64());
}

TEST(Md5Test, UpdateU64IsLittleEndianAndOrderSensitive) {
  Md5 a;
  a.UpdateU64(1);
  a.UpdateU64(2);
  Md5 b;
  b.UpdateU64(2);
  b.UpdateU64(1);
  EXPECT_NE(a.Final(), b.Final());
}

TEST(Md5Test, MillionAs) {
  const std::string million(1'000'000, 'a');
  EXPECT_EQ(Md5::Hash(million).ToHex(), "7707d6ae4e027c70eea2a935c2296f21");
}

// MD5 in RFC 1321's loop form, as Md5 computed it before its steps were
// unrolled: per-step round branches and table-driven shifts and message
// indices. The unrolled form must give the same digest on every input.
std::string LoopFormMd5Hex(ByteView data) {
  static constexpr int kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
  static constexpr std::uint32_t kSine[64] = {
      0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
      0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
      0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
      0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
      0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
      0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
      0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
      0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
      0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
      0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
      0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
      0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
      0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};
  Bytes msg(data.begin(), data.end());
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 0; i < 8; ++i) {
    msg.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }

  std::uint32_t state[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                            0x10325476u};
  for (std::size_t block = 0; block < msg.size(); block += 64) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      const std::uint8_t* p = msg.data() + block + 4 * i;
      m[i] = static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) % 16;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) % 16;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) % 16;
      }
      const std::uint32_t sum = a + f + kSine[i] + m[g];
      const std::uint32_t temp = d;
      d = c;
      c = b;
      b = b + ((sum << kShift[i]) | (sum >> (32 - kShift[i])));
      a = temp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  }
  Md5Digest digest;
  for (int i = 0; i < 16; ++i) {
    digest.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (i % 4)));
  }
  return digest.ToHex();
}

// Hashes `data` in pieces cut by a seeded RNG (some empty, some longer
// than a block).
Md5Digest SplitMd5(ByteView data, std::uint64_t seed) {
  Rng rng(seed);
  Md5 ctx;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take = std::min<std::size_t>(
        data.size() - offset, rng.Below(rng.Below(4) == 0 ? 4096 : 130));
    ctx.Update(data.subspan(offset, take));
    offset += take;
  }
  return ctx.Final();
}

TEST(Md5Test, UnrolledMatchesLoopForm) {
  Rng rng(5);
  Bytes data(1 << 20);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t len = 0; len <= 300; ++len) {
    const ByteView piece = ByteView(data).first(len);
    const std::string want = LoopFormMd5Hex(piece);
    ASSERT_EQ(Md5::Hash(piece).ToHex(), want) << "length " << len;
    ASSERT_EQ(SplitMd5(piece, len).ToHex(), want) << "split, length " << len;
  }
  const std::string want = LoopFormMd5Hex(data);
  EXPECT_EQ(Md5::Hash(data).ToHex(), want);
  EXPECT_EQ(SplitMd5(data, 1).ToHex(), want);
}

// Md5::HashChunks against Md5::Hash of each chunk on its own.
void ExpectChunksMatchHash(const std::vector<const std::uint8_t*>& chunks,
                           const std::string& where) {
  std::vector<Md5Digest> out(chunks.size());
  Md5::HashChunks(chunks, out.data());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    ASSERT_EQ(out[i], Md5::Hash(ByteView(chunks[i], Md5::kChunkBytes)))
        << where << ", chunk " << i;
  }
}

TEST(Md5Test, HashChunksMatchesHashPerChunk) {
  // 0-40 chunks: the empty call, a masked pass of every width 1-15, and
  // one to two full passes followed by each masked width. The lanes read
  // out-of-order chunks through their own pointers, at aligned and odd
  // addresses alike.
  constexpr std::size_t kChunks = 41;
  Rng rng(19);
  Bytes data(kChunks * Md5::kChunkBytes + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t skew : {0, 1, 3, 7}) {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<const std::uint8_t*> chunks;
      for (std::size_t i = 0; i < n; ++i) {
        chunks.push_back(data.data() + skew +
                         (i * 7 % kChunks) * Md5::kChunkBytes);
      }
      ExpectChunksMatchHash(chunks, "skew " + std::to_string(skew) +
                                        ", " + std::to_string(n) + " chunks");
    }
  }
}

TEST(Md5Test, HashChunksLanesMayShareOneBlock) {
  // Null image blocks all read through one shared fill block, so every
  // lane of a pass may point at the same bytes.
  const Bytes zeros(Md5::kChunkBytes, 0);
  const Bytes erased(Md5::kChunkBytes, 0xff);
  for (std::size_t n : {1, 15, 16, 17, 33}) {
    ExpectChunksMatchHash(
        std::vector<const std::uint8_t*>(n, zeros.data()),
        "zeros x " + std::to_string(n));
    std::vector<const std::uint8_t*> mixed;
    for (std::size_t i = 0; i < n; ++i) {
      mixed.push_back(i % 3 == 0 ? erased.data() : zeros.data());
    }
    ExpectChunksMatchHash(mixed, "mixed x " + std::to_string(n));
  }
}

// ---------------------------------------------------------------------------
// CRC-32C: the check values, and the hardware and slice-by-8 paths
// against a bit-at-a-time reference at every alignment, every length
// each path splits on, and every chaining cut.

std::uint32_t BitwiseCrc32c(ByteView data, std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::uint8_t b : data) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

Bytes PatternBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  return data;
}

TEST(Crc32Test, MatchesCheckValues) {
  for (auto crc : {Crc32c, Crc32cPortable}) {
    EXPECT_EQ(crc(AsBytes(""), 0), 0u);
    EXPECT_EQ(crc(AsBytes("a"), 0), 0xc1d04330u);
    EXPECT_EQ(crc(AsBytes("123456789"), 0), 0xe3069283u);
    EXPECT_EQ(crc(Bytes(32, 0x00), 0), 0x8a9136aau);
    EXPECT_EQ(crc(Bytes(32, 0xff), 0), 0x62a8ab43u);
    // Zero runs do not check as zero (zlib conditioning): a torn node
    // header of zeros fails its check.
    EXPECT_NE(crc(Bytes(13, 0), 0), 0u);
  }
}

TEST(Crc32Test, SliceBy8MatchesBitwiseAndChains) {
  Bytes data(67);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; start + len <= data.size(); ++len) {
      const ByteView piece = ByteView(data).subspan(start, len);
      EXPECT_EQ(Crc32cPortable(piece), BitwiseCrc32c(piece))
          << start << "+" << len;
    }
  }
  const ByteView all(data);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    EXPECT_EQ(Crc32cPortable(all.subspan(cut), Crc32cPortable(all.first(cut))),
              Crc32cPortable(all))
        << "cut " << cut;
  }
}

// The hardware path splits a buffer into 3 x 8 KB blocks, then 3 x 256 B
// blocks, then one stream; lengths around each split, at every start
// alignment, must agree with both other paths. On a host without SSE4.2
// Crc32c is the portable path and this checks that twice.
TEST(Crc32Test, HardwareMatchesPortableAndBitwise) {
  if (!Crc32cHardware()) GTEST_LOG_(INFO) << "no SSE4.2: portable path only";
  const Bytes data = PatternBytes(2 * 3 * 8192 + 3 * 256 + 200, 7);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 80; ++len) lengths.push_back(len);
  for (std::size_t split : {3 * 256, 2 * 3 * 256, 3 * 8192, 2 * 3 * 8192}) {
    for (std::size_t len = split - 64; len <= split + 64; ++len) {
      lengths.push_back(len);
    }
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len : lengths) {
      const ByteView piece = ByteView(data).subspan(start, len);
      const std::uint32_t want = BitwiseCrc32c(piece);
      ASSERT_EQ(Crc32c(piece), want) << start << "+" << len;
      ASSERT_EQ(Crc32cPortable(piece), want) << start << "+" << len;
    }
  }
}

TEST(Crc32Test, HardwareChainsAtEveryCut) {
  const Bytes data = PatternBytes(3 * 8192 + 3 * 256 + 37, 11);
  const ByteView all(data);
  const std::uint32_t whole = BitwiseCrc32c(all);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    ASSERT_EQ(Crc32c(all.subspan(cut), Crc32c(all.first(cut))), whole)
        << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Result / Status

TEST(ResultTest, HoldsValueOrError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.error(), Errno::kOk);

  Result<int> err = Errno::kENOENT;
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.error(), Errno::kENOENT);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StatusTest, Basics) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Errno::kEIO;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error(), Errno::kEIO);
  EXPECT_EQ(ErrnoName(s.error()), "EIO");
}

TEST(ErrnoTest, NamesAreStable) {
  EXPECT_EQ(ErrnoName(Errno::kENOSPC), "ENOSPC");
  EXPECT_EQ(ErrnoName(Errno::kENOTEMPTY), "ENOTEMPTY");
  EXPECT_EQ(ErrnoName(Errno::kOk), "OK");
}

// ---------------------------------------------------------------------------
// Byte serialization

TEST(BytesTest, RoundTripScalarsAndStrings) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutString("hello");
  w.PutBlob(AsBytes("world"));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(AsString(r.GetBlob()), "world");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedInputThrows) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU16(), 7);  // partial read is fine
  EXPECT_THROW(r.GetU32(), std::out_of_range);
}

// A hostile length near SIZE_MAX must not wrap the bounds check: pos +
// n overflowing to a small number used to pass it and hand back a span
// (or allocate a blob) of that length.
TEST(BytesTest, HostileLengthsThrowInsteadOfWrapping) {
  const Bytes data(16, 0x5a);
  ByteReader r(data);
  (void)r.GetBytes(3);
  EXPECT_THROW(r.GetBytes(std::numeric_limits<std::size_t>::max() - 2),
               std::out_of_range);
  EXPECT_EQ(r.remaining(), 13u);  // a failed read consumes nothing

  ByteWriter w;
  w.PutU64(std::numeric_limits<std::uint64_t>::max() - 7);  // blob length
  w.PutU64(0);
  ByteReader blob(w.bytes());
  EXPECT_THROW(blob.GetBlob(), std::out_of_range);
}

TEST(BytesTest, EmptyStringAndBlob) {
  ByteWriter w;
  w.PutString("");
  w.PutBlob({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_TRUE(r.GetBlob().empty());
  EXPECT_TRUE(r.AtEnd());
}

// ---------------------------------------------------------------------------
// RNG

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_differs_across_seed = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.Next();
    const std::uint64_t vb = b.Next();
    if (va != vb) all_equal = false;
    if (va != c.Next()) any_differs_across_seed = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_differs_across_seed);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BetweenFullRangeDoesNotCollapse) {
  // Regression: lo=0, hi=UINT64_MAX made the span wrap to 0, so every
  // draw returned lo. The full-range case must draw uniformly instead.
  Rng rng(11);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  bool any_nonzero = false;
  bool any_high_half = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng.Between(0, kMax);
    any_nonzero |= (v != 0);
    any_high_half |= (v > kMax / 2);
  }
  EXPECT_TRUE(any_nonzero);
  EXPECT_TRUE(any_high_half);
  // Degenerate and near-full ranges still behave.
  EXPECT_EQ(rng.Between(42, 42), 42u);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng.Between(1, kMax);
    EXPECT_GE(v, 1u);
  }
  EXPECT_EQ(rng.Between(kMax, kMax), kMax);
}

TEST(RngTest, ChanceZeroDenominatorIsACheckedNoDraw) {
  // Regression: Chance(num, 0) used to reduce to Below(0) < num, i.e.
  // 0 < num — "certain" for any nonzero numerator. A zero-denominator
  // ratio is degenerate and must be a no-draw `false`, and it must not
  // consume generator state (replay determinism).
  Rng rng(77);
  EXPECT_FALSE(rng.Chance(1, 0));
  EXPECT_FALSE(rng.Chance(1000, 0));
  EXPECT_FALSE(rng.Chance(0, 0));
  // State untouched by the degenerate draws: a twin generator that never
  // made them produces the same stream.
  Rng twin(77);
  EXPECT_EQ(rng.Next(), twin.Next());
  // Sane denominators still behave.
  Rng draws(78);
  EXPECT_FALSE(draws.Chance(0, 10));
  bool any_true = false;
  bool any_false = false;
  for (int i = 0; i < 200; ++i) {
    if (draws.Chance(1, 2)) {
      any_true = true;
    } else {
      any_false = true;
    }
  }
  EXPECT_TRUE(any_true);
  EXPECT_TRUE(any_false);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(draws.Chance(10, 10));
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(42);
  std::array<int, 5> histogram{};
  for (int i = 0; i < 5000; ++i) {
    ++histogram[rng.Below(5)];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 700);  // roughly uniform
  }
}

// ---------------------------------------------------------------------------
// SimClock

TEST(SimClockTest, AdvanceAndLiterals) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5_us);
  clock.Advance(2_ms);
  clock.Advance(1_s);
  EXPECT_EQ(clock.now(), 5'000ull + 2'000'000ull + 1'000'000'000ull);
  EXPECT_NEAR(clock.seconds(), 1.002005, 1e-9);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

}  // namespace
}  // namespace mcfs
