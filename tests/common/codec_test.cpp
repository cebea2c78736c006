#include "edc/common/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "edc/common/rng.h"

namespace edc {
namespace {

TEST(CodecTest, RoundTripsScalars) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutBool(true);
  enc.PutBool(false);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x1122334455667788ULL);
  enc.PutI64(-42);

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xab);
  EXPECT_TRUE(*dec.GetBool());
  EXPECT_FALSE(*dec.GetBool());
  EXPECT_EQ(*dec.GetU16(), 0x1234);
  EXPECT_EQ(*dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetU64(), 0x1122334455667788ULL);
  EXPECT_EQ(*dec.GetI64(), -42);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, RoundTripsStringsAndBytes) {
  Encoder enc;
  enc.PutString("hello");
  enc.PutString("");
  std::vector<uint8_t> blob{0, 1, 2, 255};
  enc.PutBytes(blob);

  Decoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetString(), "hello");
  EXPECT_EQ(*dec.GetString(), "");
  EXPECT_EQ(*dec.GetBytes(), blob);
  EXPECT_TRUE(dec.AtEnd());
}

class VarintParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintParamTest, RoundTrips) {
  Encoder enc;
  enc.PutVarint(GetParam());
  Decoder dec(enc.buffer());
  auto v = dec.GetVarint();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, GetParam());
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintParamTest,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                                           (1ULL << 32) - 1, 1ULL << 32,
                                           std::numeric_limits<uint64_t>::max()));

TEST(CodecTest, VarintIsCompact) {
  Encoder enc;
  enc.PutVarint(5);
  EXPECT_EQ(enc.size(), 1u);
  Encoder enc2;
  enc2.PutVarint(300);
  EXPECT_EQ(enc2.size(), 2u);
}

TEST(CodecTest, TruncatedScalarFails) {
  Encoder enc;
  enc.PutU32(7);
  Decoder dec(enc.buffer().data(), 2);
  auto v = dec.GetU32();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.code(), ErrorCode::kDecodeError);
}

TEST(CodecTest, TruncatedStringFails) {
  Encoder enc;
  enc.PutString("hello world");
  Decoder dec(enc.buffer().data(), 4);
  EXPECT_FALSE(dec.GetString().ok());
}

TEST(CodecTest, StringLengthLyingBeyondBufferFails) {
  Encoder enc;
  enc.PutVarint(1000);  // claims 1000 bytes follow
  enc.PutU8('x');
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.GetString().ok());
}

TEST(CodecTest, MalformedVarintFails) {
  // Eleven continuation bytes exceed the 64-bit shift budget.
  std::vector<uint8_t> bad(11, 0x80);
  Decoder dec(bad);
  EXPECT_FALSE(dec.GetVarint().ok());
}

TEST(CodecTest, EmptyBufferFailsEverything) {
  std::vector<uint8_t> empty;
  Decoder dec(empty);
  EXPECT_FALSE(dec.GetU8().ok());
  EXPECT_FALSE(dec.GetU64().ok());
  EXPECT_FALSE(dec.GetVarint().ok());
  EXPECT_FALSE(dec.GetString().ok());
}

TEST(CodecTest, FuzzRoundTripRandomSequences) {
  Rng rng(12345);
  for (int iter = 0; iter < 200; ++iter) {
    Encoder enc;
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    int n = static_cast<int>(rng.UniformU64(20));
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.NextU64() >> rng.UniformU64(64);
      ints.push_back(v);
      enc.PutVarint(v);
      std::string s;
      size_t len = rng.UniformU64(50);
      for (size_t j = 0; j < len; ++j) {
        s += static_cast<char>(rng.UniformU64(256));
      }
      strs.push_back(s);
      enc.PutString(s);
    }
    Decoder dec(enc.buffer());
    for (int i = 0; i < n; ++i) {
      auto v = dec.GetVarint();
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, ints[static_cast<size_t>(i)]);
      auto s = dec.GetString();
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(*s, strs[static_cast<size_t>(i)]);
    }
    EXPECT_TRUE(dec.AtEnd());
  }
}

// ---- Checksummed frames (PutFramed / GetFramed) ----
//
// The one every-byte sweep for the framing the log, the snapshot image and
// the BFT checkpoint share; their own tests keep only their policies (clean
// prefix, exactly one frame, reject truncation).

std::vector<uint8_t> FramedPayload() {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 40; ++i) {
    payload.push_back(static_cast<uint8_t>(i * 37 + 11));
  }
  return payload;
}

TEST(FramedCodecTest, RoundTripsBackToBackFrames) {
  std::vector<uint8_t> payload = FramedPayload();
  Encoder enc;
  PutFramed(enc, payload);
  PutFramed(enc, {});
  ASSERT_EQ(enc.size(), 2 * kFrameHeaderBytes + payload.size());
  Decoder dec(enc.buffer());
  std::vector<uint8_t> out;
  ASSERT_EQ(GetFramed(dec, &out), FrameStatus::kOk);
  EXPECT_EQ(out, payload);
  ASSERT_EQ(GetFramed(dec, &out), FrameStatus::kOk);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(FramedCodecTest, TruncationAtEveryByteIsReportedTruncated) {
  Encoder enc;
  PutFramed(enc, FramedPayload());
  const std::vector<uint8_t>& frame = enc.buffer();
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<uint8_t> cut(frame.begin(), frame.begin() + static_cast<ptrdiff_t>(keep));
    Decoder dec(cut);
    std::vector<uint8_t> out = {0xee};
    EXPECT_EQ(GetFramed(dec, &out), FrameStatus::kTruncated) << "keep " << keep;
    EXPECT_EQ(out, std::vector<uint8_t>{0xee}) << "payload written on failure";
  }
}

TEST(FramedCodecTest, CorruptionAtEveryByteIsDetected) {
  Encoder enc;
  PutFramed(enc, FramedPayload());
  const std::vector<uint8_t>& frame = enc.buffer();
  for (size_t at = 0; at < frame.size(); ++at) {
    std::vector<uint8_t> bad = frame;
    bad[at] ^= 0x5a;
    Decoder dec(bad);
    std::vector<uint8_t> out;
    FrameStatus status = GetFramed(dec, &out);
    if (at < 4) {
      // A damaged length either runs past the buffer or misframes the
      // payload, which the checksum catches.
      EXPECT_NE(status, FrameStatus::kOk) << "at " << at;
    } else {
      EXPECT_EQ(status, FrameStatus::kCorrupt) << "at " << at;
    }
    EXPECT_TRUE(out.empty()) << "payload written on failure at " << at;
  }
}

}  // namespace
}  // namespace edc
