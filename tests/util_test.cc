// Utility-layer tests: Status/Result, byte codecs, CRC32C, SHA-256,
// clocks, RNG determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/crc32c.h"
#include "src/util/crc32c_internal.h"
#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/sha256_internal.h"
#include "src/util/status.h"
#include "src/util/time.h"
#include "tests/test_util.h"

namespace clio {
namespace {

TEST(Status, OkIsDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status status = Corrupt("bad trailer in block 17");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorrupt);
  EXPECT_EQ(status.ToString(), "corrupt: bad trailer in block 17");
}

TEST(Status, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(NotWritten("x").code(), StatusCode::kNotWritten);
  EXPECT_EQ(WriteOnce("x").code(), StatusCode::kWriteOnce);
  EXPECT_EQ(Corrupt("x").code(), StatusCode::kCorrupt);
  EXPECT_EQ(Invalidated("x").code(), StatusCode::kInvalidated);
  EXPECT_EQ(NoSpace("x").code(), StatusCode::kNoSpace);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
}

Result<int> ParsePositive(int v) {
  if (v <= 0) {
    return InvalidArgument("not positive");
  }
  return v;
}

Result<int> Doubled(int v) {
  CLIO_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(Result, ValueAndErrorPaths) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = Doubled(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(Bytes, FixedWidthRoundTrip) {
  Bytes buffer(32, std::byte{0});
  StoreU16(buffer, 0, 0xBEEF);
  StoreU32(buffer, 2, 0xDEADBEEF);
  StoreU64(buffer, 6, 0x0123456789ABCDEFull);
  StoreI64(buffer, 14, -42);
  EXPECT_EQ(LoadU16(buffer, 0), 0xBEEF);
  EXPECT_EQ(LoadU32(buffer, 2), 0xDEADBEEFu);
  EXPECT_EQ(LoadU64(buffer, 6), 0x0123456789ABCDEFull);
  EXPECT_EQ(LoadI64(buffer, 14), -42);
}

TEST(Bytes, LittleEndianLayout) {
  Bytes buffer(4, std::byte{0});
  StoreU32(buffer, 0, 0x01020304);
  EXPECT_EQ(buffer[0], std::byte{0x04});
  EXPECT_EQ(buffer[3], std::byte{0x01});
}

TEST(Bytes, WriterReaderRoundTrip) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU8(7);
  w.PutU16(300);
  w.PutU32(70000);
  w.PutU64(1ull << 40);
  w.PutI64(-99);
  w.PutString("clio");
  ByteReader r(out);
  EXPECT_EQ(r.GetU8(), 7);
  EXPECT_EQ(r.GetU16(), 300);
  EXPECT_EQ(r.GetU32(), 70000u);
  EXPECT_EQ(r.GetU64(), 1ull << 40);
  EXPECT_EQ(r.GetI64(), -99);
  EXPECT_EQ(r.GetString(), "clio");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.failed());
}

TEST(Bytes, ReaderFailsGracefullyOnTruncation) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(1234);
  ByteReader r(out);
  (void)r.GetU32();  // asks for more than present
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.GetU64(), 0u);  // stays failed, returns zeros
}

// RFC 3720 §B.4 test vectors, plus the customary "123456789" check
// value. Every implementation must produce them.
TEST(Crc32c, KnownAnswers) {
  Bytes zeros(32, std::byte{0x00});
  Bytes ones(32, std::byte{0xFF});
  Bytes ascending(32);
  Bytes descending(32);
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::byte>(i);
    descending[i] = static_cast<std::byte>(31 - i);
  }
  const Bytes digits = ToBytes("123456789");
  const std::vector<std::pair<const Bytes*, uint32_t>> vectors = {
      {&zeros, 0x8A9136AAu},     {&ones, 0x62A8AB43u},
      {&ascending, 0x46DD794Eu}, {&descending, 0x113FDB5Cu},
      {&digits, 0xE3069283u},
  };
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(Crc32c(*data), want);
    EXPECT_EQ(crc32c_internal::ExtendTable(0, *data), want);
    if (crc32c_internal::HardwareAvailable()) {
      EXPECT_EQ(crc32c_internal::ExtendHardware(0, *data), want);
    }
  }
}

// The hardware path must be bit-identical to the table path (the media
// format depends on it) for every length and start alignment.
TEST(Crc32c, HardwareMatchesTable) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  Rng rng(0xC3C3);
  Bytes buffer(4200 + 8);
  for (std::byte& b : buffer) {
    b = static_cast<std::byte>(rng.Next());
  }
  const std::span<const std::byte> all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 4200; ++length) {
      const auto data = all.subspan(offset, length);
      const uint32_t seed = static_cast<uint32_t>(length * 2654435761u);
      ASSERT_EQ(crc32c_internal::ExtendHardware(seed, data),
                crc32c_internal::ExtendTable(seed, data))
          << "offset " << offset << " length " << length;
    }
  }
}

// Extending over any split of the input equals one call over all of it.
TEST(Crc32c, ExtendChainsOverAnySplit) {
  Rng rng(0x5911);
  Bytes data(1000);
  for (std::byte& b : data) {
    b = static_cast<std::byte>(rng.Next());
  }
  const std::span<const std::byte> all(data);
  const uint32_t whole = Crc32c(all);
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    ASSERT_EQ(Crc32cExtend(Crc32c(all.first(cut)), all.subspan(cut)), whole)
        << "cut " << cut;
  }
  // Three pieces, at random cut points.
  for (int trial = 0; trial < 200; ++trial) {
    size_t a = rng.Range(0, data.size());
    size_t b = rng.Range(0, data.size());
    if (a > b) {
      std::swap(a, b);
    }
    uint32_t crc = Crc32c(all.first(a));
    crc = Crc32cExtend(crc, all.subspan(a, b - a));
    crc = Crc32cExtend(crc, all.subspan(b));
    ASSERT_EQ(crc, whole) << "cuts " << a << ", " << b;
  }
}

std::string Hex(const Sha256Digest& digest) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : digest) {
    out.push_back(kDigits[static_cast<uint8_t>(b) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(b) & 0xF]);
  }
  return out;
}

Sha256Digest DigestWith(Sha256::CompressFn compress,
                        std::span<const std::byte> data) {
  Sha256 h(compress);
  h.Update(data);
  return h.Finish();
}

// FIPS 180-4 example vectors (NIST CSRC "SHA256.pdf" and the long
// message). Every implementation must produce them.
TEST(Sha256, KnownAnswers) {
  const std::vector<std::pair<Bytes, std::string>> vectors = {
      {ToBytes(""),
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {ToBytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1'000'000, std::byte{'a'}),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(Hex(Sha256Of(data)), want) << data.size() << " bytes";
    EXPECT_EQ(Hex(DigestWith(sha256_internal::CompressPortable, data)), want);
    if (sha256_internal::HardwareAvailable()) {
      EXPECT_EQ(Hex(DigestWith(sha256_internal::CompressHardware, data)),
                want);
    }
  }
}

// The SHA-NI path must be bit-identical to the portable rounds (the chain
// tags on media depend on it) for every padding shape: each length up to
// 300 crosses the one- and two-block padding cases several times.
TEST(Sha256, HardwareMatchesPortable) {
  if (!sha256_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SHA extensions on this CPU";
  }
  Rng rng(0x5A256);
  Bytes buffer(4096);
  for (std::byte& b : buffer) {
    b = static_cast<std::byte>(rng.Next());
  }
  const std::span<const std::byte> all(buffer);
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= 300; ++length) {
    lengths.push_back(length);
  }
  lengths.push_back(4096);
  for (size_t length : lengths) {
    ASSERT_EQ(DigestWith(sha256_internal::CompressHardware, all.first(length)),
              DigestWith(sha256_internal::CompressPortable, all.first(length)))
        << "length " << length;
  }
}

// Updating over any split of the input equals one call over all of it.
TEST(Sha256, UpdateChainsOverAnySplit) {
  Rng rng(0x5B11);
  Bytes data(700);
  for (std::byte& b : data) {
    b = static_cast<std::byte>(rng.Next());
  }
  const std::span<const std::byte> all(data);
  const Sha256Digest whole = Sha256Of(all);
  Sha256 h;
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    h.Update(all.first(cut));
    h.Update(all.subspan(cut));
    ASSERT_EQ(h.Finish(), whole) << "cut " << cut;  // Finish resets
  }
  // Many pieces, at random cut points, some of them empty.
  for (int trial = 0; trial < 200; ++trial) {
    size_t at = 0;
    while (at < data.size()) {
      size_t piece = std::min<size_t>(rng.Below(150), data.size() - at);
      h.Update(all.subspan(at, piece));
      at += piece;
    }
    ASSERT_EQ(h.Finish(), whole) << "trial " << trial;
  }
}

TEST(Time, NowUniqueStrictlyIncreases) {
  SimulatedClock clock(100, /*auto_tick=*/0);  // frozen clock
  Timestamp a = clock.NowUnique();
  Timestamp b = clock.NowUnique();
  Timestamp c = clock.NowUnique();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Time, FloorUniqueBumpsPastRecoveredTimestamps) {
  SimulatedClock clock(100, 0);
  clock.FloorUnique(5000);
  EXPECT_GT(clock.NowUnique(), 5000);
}

TEST(Time, SkewedClockOffsets) {
  SimulatedClock base(1000, 0);
  SkewedClock fast(&base, 250);
  SkewedClock slow(&base, -250);
  EXPECT_EQ(fast.Now(), 1250);
  EXPECT_EQ(slow.Now(), 750);
}

TEST(Time, NowUniqueIsThreadSafe) {
  SimulatedClock clock(0, 1);
  std::vector<Timestamp> seen(4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        seen[t * 1000 + i] = clock.NowUnique();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "duplicate timestamps issued";
}

TEST(Rng, DeterministicAcrossRuns) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, RangeAndChanceBehave) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.Chance(1, 2) ? 1 : 0;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

}  // namespace
}  // namespace clio
