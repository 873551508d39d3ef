// Unit tests for the common layer: rng, bytes, stats, ensure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/bytes.hpp"
#include "common/ensure.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace apxa {
namespace {

TEST(Ids, QuorumIsNMinusT) {
  SystemParams p{10, 3};
  EXPECT_EQ(p.quorum(), 7u);
}

TEST(Ensure, ThrowsInvalidArgument) {
  EXPECT_THROW(APXA_ENSURE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(APXA_ENSURE(true, "fine"));
}

TEST(Ensure, AssertThrowsLogicError) {
  EXPECT_THROW(APXA_ASSERT(false, "bug"), std::logic_error);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IntInclusiveRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ForkIndependent) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Bytes, VarintRoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                          1ull << 20, 1ull << 40, 1ull << 63, ~0ull}) {
    ByteWriter w;
    w.put_varint(v);
    EXPECT_EQ(w.bytes().size(), varint_size(v));
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_varint(), v);
    EXPECT_TRUE(r.done());
    std::size_t pos = 0;
    std::uint64_t out = 0;
    EXPECT_TRUE(read_varint(w.bytes(), pos, out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, w.bytes().size());
  }
}

TEST(Bytes, VarintCompactness) {
  ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.bytes().size(), 1u);
  ByteWriter w2;
  w2.put_varint(300);
  EXPECT_EQ(w2.bytes().size(), 2u);
}

TEST(Bytes, VarintRejectsBitsPast63) {
  // Fuzz-surfaced gap (PR 10): a 10-byte LEB128 whose final byte carries
  // payload bits at or above bit 64 used to wrap modulo 2^64, letting a
  // forged overlong encoding alias a small value.  The honest encoder never
  // emits more than bit 63 in the 10th byte, so the reader now rejects any
  // 10th byte with bits other than 0x01 set.
  Bytes forged;
  forged.push_back(static_cast<std::byte>(0x81));  // low bits of "1 + 2^64"
  for (int i = 0; i < 8; ++i) forged.push_back(static_cast<std::byte>(0x80));
  forged.push_back(static_cast<std::byte>(0x02));  // bit 64: out of range
  ByteReader r(forged);
  EXPECT_THROW(r.get_varint(), std::invalid_argument);

  // The boundary value UINT64_MAX (10th byte 0x01, bit 63 only) stays legal.
  ByteWriter w;
  w.put_varint(~0ull);
  EXPECT_EQ(w.bytes().size(), 10u);
  ByteReader ok(w.bytes());
  EXPECT_EQ(ok.get_varint(), ~0ull);
  EXPECT_TRUE(ok.done());
}

TEST(Bytes, F64RoundTrip) {
  for (double v : {0.0, -1.5, 3.141592653589793, 1e-300, -1e300,
                   std::numeric_limits<double>::infinity()}) {
    ByteWriter w;
    w.put_f64(v);
    EXPECT_EQ(w.bytes().size(), 8u);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_f64(), v);
  }
}

TEST(Bytes, BitsRoundTrip) {
  std::vector<bool> bits{true, false, false, true, true, true, false, true, true};
  ByteWriter w;
  w.put_bits(bits);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_bits(), bits);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EmptyBits) {
  ByteWriter w;
  w.put_bits({});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_bits().empty());
}

TEST(Bytes, ReaderOverrunThrows) {
  ByteWriter w;
  w.put_u8(1);
  ByteReader r(w.bytes());
  r.get_u8();
  EXPECT_THROW(r.get_u8(), std::invalid_argument);
}

TEST(Bytes, MixedSequence) {
  ByteWriter w;
  w.put_u8(7);
  w.put_varint(1234567);
  w.put_f64(-0.25);
  w.put_varint(3);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_varint(), 1234567u);
  EXPECT_EQ(r.get_f64(), -0.25);
  EXPECT_EQ(r.get_varint(), 3u);
  EXPECT_TRUE(r.done());
}

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  a.add(3.0);
  a.add(-1.0);
  a.add(2.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), -1.0);
  EXPECT_EQ(a.max(), 3.0);
  EXPECT_NEAR(a.mean(), 4.0 / 3.0, 1e-12);
}

TEST(Stats, PercentileNearestValues) {
  std::vector<double> s{1, 2, 3, 4, 5};
  EXPECT_EQ(percentile(s, 0), 1.0);
  EXPECT_EQ(percentile(s, 100), 5.0);
  EXPECT_EQ(percentile(s, 50), 3.0);
}

TEST(Stats, PercentileEmptyAndSingleton) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
}

TEST(Stats, SpreadOf) {
  EXPECT_EQ(spread_of({}), 0.0);
  EXPECT_EQ(spread_of({4.0}), 0.0);
  EXPECT_EQ(spread_of({4.0, 1.0, 9.0}), 8.0);
}

}  // namespace
}  // namespace apxa
