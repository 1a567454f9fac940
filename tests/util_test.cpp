// Unit tests for util: serialization, RNG, statistics, formatting.
#include <gtest/gtest.h>

#include <cmath>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace ibc {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, ScalarRoundtrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  const Bytes b = w.take();
  EXPECT_EQ(b.size(), 1u + 2 + 4 + 8 + 8);

  Reader r(b);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const Bytes b = w.take();
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Bytes, BlobAndStringRoundtrip) {
  Writer w;
  w.blob(bytes_of("hello"));
  w.str("world");
  w.blob({});  // empty blob is legal
  const Bytes b = w.take();

  Reader r(b);
  EXPECT_TRUE(bytes_equal(r.blob_view(), bytes_of("hello")));
  EXPECT_EQ(r.str(), "world");
  EXPECT_EQ(r.blob().size(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, MessageIdRoundtrip) {
  const MessageId id{7, 123456789};
  Writer w;
  w.message_id(id);
  Reader r(w.view());
  EXPECT_EQ(r.message_id(), id);
}

TEST(Bytes, RemainingTracksConsumption) {
  Writer w;
  w.u32(1);
  w.u32(2);
  const Bytes b = w.take();
  Reader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EqualityHelpers) {
  EXPECT_TRUE(bytes_equal(bytes_of("abc"), bytes_of("abc")));
  EXPECT_FALSE(bytes_equal(bytes_of("abc"), bytes_of("abd")));
  EXPECT_FALSE(bytes_equal(bytes_of("abc"), bytes_of("ab")));
  EXPECT_TRUE(bytes_equal({}, {}));
}

TEST(Bytes, HexdumpTruncates) {
  const Bytes b(100, 0xFF);
  const std::string dump = hexdump(b, 4);
  EXPECT_EQ(dump, "ffffffff...");
}

class BytesBlobSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BytesBlobSizes, RoundtripAnySize) {
  Bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  Writer w;
  w.blob(payload);
  Reader r(w.view());
  EXPECT_TRUE(bytes_equal(r.blob_view(), payload));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesBlobSizes,
                         ::testing::Values(0, 1, 2, 255, 256, 4096, 100000));

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsOrderInsensitive) {
  Rng parent(99);
  Rng child1 = parent.fork("net");
  parent.next_u64();  // advancing the parent...
  parent.fork("other");
  Rng child2 = parent.fork("net");  // ...must not change the child stream
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, IndexedForksAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork("proc", 1);
  Rng b = parent.fork("proc", 2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextInIsInclusive) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanIsPlausible) {
  Rng r(6);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

// ---------------------------------------------------------------- stats

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, reversed insertion
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, EmptyQuantileIsZero) {
  Samples s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
}

// ----------------------------------------------------------------- time

TEST(Time, UnitArithmetic) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(2)), 2.0);
}

TEST(Time, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(1500)), "1.500ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
}

TEST(Types, MessageIdOrderingAndHash) {
  const MessageId a{1, 5}, b{1, 6}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(to_string(a), "1:5");
  EXPECT_NE(std::hash<MessageId>{}(a), std::hash<MessageId>{}(b));
}

}  // namespace
}  // namespace ibc
