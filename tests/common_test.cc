#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace nok {
namespace {

// ---------------------------------------------------------------------------
// Status / Result.

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  Status s = Status::IOError("disk gone");
  EXPECT_EQ(s.message(), "disk gone");
  EXPECT_EQ(s.ToString(), "IOError: disk gone");
}

TEST(StatusTest, CopyPreservesContent) {
  Status s = Status::Corruption("bad page");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.message(), "bad page");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubler(Result<int> in) {
  NOK_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::Internal("x")).status().IsInternal());
}

// ---------------------------------------------------------------------------
// Slice.

TEST(SliceTest, BasicViews) {
  std::string s = "hello";
  Slice a(s);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a[1], 'e');
  EXPECT_EQ(a.ToString(), "hello");
  a.RemovePrefix(2);
  EXPECT_EQ(a.ToString(), "llo");
}

TEST(SliceTest, Comparison) {
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abcdef").starts_with(Slice("abc")));
  EXPECT_FALSE(Slice("ab").starts_with(Slice("abc")));
}

TEST(SliceTest, EmbeddedZeros) {
  std::string s("a\0b", 3);
  Slice a(s);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a == Slice(s));
}

// ---------------------------------------------------------------------------
// Coding.

TEST(CodingTest, FixedRoundTrip) {
  char buf[8];
  EncodeFixed16(buf, 0xbeef);
  EXPECT_EQ(DecodeFixed16(buf), 0xbeef);
  EncodeFixed32(buf, 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed32(buf), 0xdeadbeefu);
  EncodeFixed64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed64(buf), 0x0123456789abcdefull);
}

TEST(CodingTest, BigEndianRoundTripAndOrder) {
  char a[8], b[8];
  EncodeBigEndian64(a, 5);
  EncodeBigEndian64(b, 300);
  EXPECT_LT(memcmp(a, b, 8), 0);  // Order-preserving.
  EXPECT_EQ(DecodeBigEndian64(a), 5u);
  EXPECT_EQ(DecodeBigEndian64(b), 300u);
  EncodeBigEndian32(a, 0x01020304u);
  EXPECT_EQ(DecodeBigEndian32(a), 0x01020304u);
  EncodeBigEndian16(a, 0x0102);
  EXPECT_EQ(DecodeBigEndian16(a), 0x0102);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Both32And64) {
  const uint64_t v = GetParam();
  std::string buf;
  PutVarint64(&buf, v);
  EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  Slice in(buf);
  uint64_t got = 0;
  ASSERT_TRUE(GetVarint64(&in, &got));
  EXPECT_EQ(got, v);
  EXPECT_TRUE(in.empty());
  if (v <= 0xffffffffull) {
    std::string buf32;
    PutVarint32(&buf32, static_cast<uint32_t>(v));
    Slice in32(buf32);
    uint32_t got32 = 0;
    ASSERT_TRUE(GetVarint32(&in32, &got32));
    EXPECT_EQ(got32, static_cast<uint32_t>(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                      0xffffffffull, 0x100000000ull,
                      0xffffffffffffffffull));

TEST(CodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  PutLengthPrefixedSlice(&buf, Slice("world"));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "world");
  EXPECT_TRUE(in.empty());
  Slice d;
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &d));
}

TEST(CodingTest, VarintRandomRoundTripSweep) {
  Random rng(7);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Next() >> (rng.Uniform(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Slice in(buf);
  for (uint64_t expected : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(in.empty());
}

// ---------------------------------------------------------------------------
// Hash / Random.

TEST(HashTest, StableKnownValues) {
  // FNV-1a is a fixed algorithm; pin a value so accidental changes to the
  // persisted hash break loudly.
  EXPECT_EQ(Hash64(Slice("")), 14695981039346656037ull);
  EXPECT_NE(Hash64(Slice("a")), Hash64(Slice("b")));
  EXPECT_NE(Hash32(Slice("a")), Hash32(Slice("b")));
}

TEST(Crc32cTest, KnownAnswer) {
  // The CRC-32C check value from the iSCSI RFC (RFC 3720) test vector.
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32cExtendTable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(Slice("")), 0u);
}

TEST(Crc32cTest, DispatchedPathMatchesTheTableAtEveryLengthAndAlignment) {
  // Crc32cExtend takes the SSE4.2 path where the CPU has it; the table
  // loop is the reference, called directly so the test means the same on
  // every CPU.  Offsets 0-7 put the start at every 8-byte alignment, so
  // the head, word and tail loops of the hardware path all get exercised.
  std::string buf(8 + 256, '\0');
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 256; ++len) {
      const char* data = buf.data() + start;
      ASSERT_EQ(Crc32cExtend(0, data, len), Crc32cExtendTable(0, data, len))
          << "start " << start << " length " << len;
      ASSERT_EQ(Crc32cExtend(0x12345678u, data, len),
                Crc32cExtendTable(0x12345678u, data, len))
          << "seeded, start " << start << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split : {size_t{0}, size_t{1}, size_t{10}, data.size()}) {
    uint32_t partial = Crc32c(Slice(data.data(), split));
    uint32_t full =
        Crc32cExtend(partial, data.data() + split, data.size() - split);
    EXPECT_EQ(full, Crc32c(Slice(data))) << "split " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::string data(32, '\xAB');
  const uint32_t base = Crc32c(Slice(data));
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
      EXPECT_NE(Crc32c(Slice(data)), base) << "byte " << i << " bit " << bit;
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
    }
  }
}

TEST(HashTest, FewCollisionsOnSmallKeySpace) {
  std::set<uint64_t> hashes;
  for (int i = 0; i < 10000; ++i) {
    hashes.insert(Hash64(Slice("key" + std::to_string(i))));
  }
  EXPECT_EQ(hashes.size(), 10000u);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.05);
}

}  // namespace
}  // namespace nok
