// Unit tests for the util layer: MD5 (against RFC 1321 vectors), CRC-32,
// Result, byte serialization, deterministic RNG, and the simulated clock.
#include <gtest/gtest.h>

#include <limits>

#include "util/bytes.h"
#include "util/crc32.h"
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

// ---------------------------------------------------------------------------
// CRC-32: the standard check values, and the slice-by-8 path against a
// bit-at-a-time reference at every length and alignment it splits on.

std::uint32_t BitwiseCrc32(ByteView data) {
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t b : data) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesCheckValues) {
  EXPECT_EQ(Crc32(AsBytes("")), 0u);
  EXPECT_EQ(Crc32(AsBytes("a")), 0xe8b7be43u);
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(Crc32(AsBytes("The quick brown fox jumps over the lazy dog")),
            0x414fa339u);
  // Zero runs do not check as zero (zlib conditioning).
  EXPECT_NE(Crc32(Bytes(13, 0)), 0u);
}

TEST(Crc32Test, SliceBy8MatchesBitwiseAndChains) {
  Bytes data(67);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; start + len <= data.size(); ++len) {
      const ByteView piece = ByteView(data).subspan(start, len);
      EXPECT_EQ(Crc32(piece), BitwiseCrc32(piece)) << start << "+" << len;
    }
  }
  const ByteView all(data);
  for (std::size_t cut = 0; cut <= all.size(); ++cut) {
    EXPECT_EQ(Crc32(all.subspan(cut), Crc32(all.first(cut))), Crc32(all))
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
