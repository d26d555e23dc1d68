// Shared helpers for the test suite.
#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/clio/log_service.h"
#include "src/device/borrowed_device.h"
#include "src/device/memory_worm_device.h"
#include "src/util/rng.h"
#include "src/util/time.h"

// gtest-friendly Status/Result assertions.
#define ASSERT_OK(expr)                                                   \
  do {                                                                    \
    auto _assert_ok_st = (expr);                                          \
    ASSERT_TRUE(_assert_ok_st.ok()) << _assert_ok_st.ToString();          \
  } while (0)

#define EXPECT_OK(expr)                                                   \
  do {                                                                    \
    auto _expect_ok_st = (expr);                                          \
    EXPECT_TRUE(_expect_ok_st.ok()) << _expect_ok_st.ToString();          \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(decl, expr)                                   \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                              \
      CLIO_STATUS_CONCAT_(_assert_res_, __LINE__), decl, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, decl, expr)                        \
  auto tmp = (expr);                                                       \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();                        \
  decl = std::move(tmp).value()

namespace clio {
namespace testing {

// Long-haul iteration knob for the fault-injection suites. The unit is
// crash-restart iterations: CLIO_CHAOS_ITERATIONS, when set to a
// positive integer, replaces the chaos suites' default count (24 at
// PR time; the nightly workflow sets 240 for a 10x soak). Loops that are
// not literally crash-restart rounds scale proportionally through
// ScaledByChaos() so one knob stretches every long-haul suite together.
inline int ChaosIterations(int fallback) {
  if (const char* env = std::getenv("CLIO_CHAOS_ITERATIONS")) {
    const int value = std::atoi(env);
    if (value > 0) {
      return value;
    }
  }
  return fallback;
}

inline int ScaledByChaos(int base) {
  return static_cast<int>(static_cast<int64_t>(base) * ChaosIterations(24) /
                          24);
}

// A borrowed device whose next reads of one block fail the way a
// transient fault does (kUnavailable); every other read goes through.
class FlakyBlockDevice : public BorrowedDevice {
 public:
  using BorrowedDevice::BorrowedDevice;

  // The next `failures` reads of `block` fail.
  void FailReads(uint64_t block, int failures) {
    flaky_ = block;
    failures_ = failures;
  }

  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    if (i == flaky_ && failures_ > 0) {
      --failures_;
      return Unavailable("transient read of block " + std::to_string(i));
    }
    return BorrowedDevice::ReadBlock(i, out);
  }
  // A read pass reads block by block here, so the flaky block fails it.
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    return WormDevice::ReadBlocks(first, count, out);
  }

 private:
  uint64_t flaky_ = 0;
  int failures_ = 0;
};

// A borrowed device that turns one chosen burn into garbage: the block
// holds junk and the burn fails, as a wild write does (§2.3.2). The writer
// invalidates that block and burns the same image past it.
class GarbageBurnDevice : public BorrowedDevice {
 public:
  using BorrowedDevice::BorrowedDevice;

  // The `n`th burn from now (1 = the next one) turns to garbage.
  void GarbageOnBurn(int n) { countdown_ = n; }
  bool fired() const { return countdown_ == 0; }

  Result<uint64_t> AppendBlock(std::span<const std::byte> d) override {
    if (countdown_ > 0 && --countdown_ == 0) {
      const Bytes junk(d.size(), std::byte{0x5A});
      CLIO_RETURN_IF_ERROR(BorrowedDevice::AppendBlock(junk).status());
      return Unavailable("garbage burn");
    }
    return BorrowedDevice::AppendBlock(d);
  }

 private:
  int countdown_ = -1;
};

// Random printable payload of the given size.
inline Bytes RandomPayload(Rng* rng, size_t size) {
  Bytes out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>('a' + rng->Below(26));
  }
  return out;
}

struct ServiceFixture {
  // Heap-held so the fixture stays movable (the service keeps a pointer).
  std::unique_ptr<SimulatedClock> clock =
      std::make_unique<SimulatedClock>(1'000'000, /*auto_tick=*/7);
  std::unique_ptr<LogService> service;

  // Creates a service on a fresh in-memory WORM device; devices created by
  // the factory (for successor volumes) share the geometry.
  static ServiceFixture Make(uint32_t block_size = 1024,
                             uint64_t capacity_blocks = 4096,
                             uint16_t degree = 16,
                             size_t cache_blocks = 4096,
                             NvramTail* nvram = nullptr,
                             bool enable_extent_index = true) {
    ServiceFixture fx;
    MemoryWormOptions dev_options;
    dev_options.block_size = block_size;
    dev_options.capacity_blocks = capacity_blocks;
    LogServiceOptions options;
    options.entrymap_degree = degree;
    options.cache_blocks = cache_blocks;
    options.sequence_id = 0xC110C110;
    options.nvram = nvram;
    options.enable_extent_index = enable_extent_index;
    auto service = LogService::Create(
        std::make_unique<MemoryWormDevice>(dev_options), fx.clock.get(),
        options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    fx.service = std::move(service).value();
    fx.service->set_volume_factory(
        [dev_options](uint32_t) -> Result<std::unique_ptr<WormDevice>> {
          return std::unique_ptr<WormDevice>(
              std::make_unique<MemoryWormDevice>(dev_options));
        });
    return fx;
  }
};

}  // namespace testing
}  // namespace clio

#endif  // TESTS_TEST_UTIL_H_
