// Group-commit batcher tests: how long a forced append holds for company
// (DESIGN.md §9). Every timing check is a lower bound, so a slow host can
// only make them pass more easily.
#include "src/net/batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "src/device/borrowed_device.h"
#include "src/device/memory_worm_device.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

// A device whose burns take `burn` once slowed, and which tells a waiter
// when a slow burn has begun.
class SlowBurnDevice : public BorrowedDevice {
 public:
  using BorrowedDevice::BorrowedDevice;

  // Call before the batcher sees its first append.
  void Slow(microseconds burn) { burn_ = burn; }

  // Blocks until a slow burn has started.
  void AwaitBurn() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return burns_started_ > 0; });
  }

  Result<uint64_t> AppendBlock(std::span<const std::byte> d) override {
    if (burn_.count() > 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++burns_started_;
      }
      cv_.notify_all();
      std::this_thread::sleep_for(burn_);
    }
    return BorrowedDevice::AppendBlock(d);
  }

 private:
  microseconds burn_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  int burns_started_ = 0;
};

class BatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryWormOptions media_options;
    media_options.block_size = 1024;
    media_options.capacity_blocks = 4096;
    media_ = std::make_unique<MemoryWormDevice>(media_options);
    auto device = std::make_unique<SlowBurnDevice>(media_.get());
    device_ = device.get();
    LogServiceOptions options;
    options.sequence_id = 0xBA7C;
    auto service = LogService::Create(std::move(device), &clock_, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    ASSERT_OK(service_->CreateLogFile("/batch").status());
  }

  AppendRequest Forced(std::string_view payload) const {
    AppendRequest request;
    request.path = "/batch";
    request.force = true;
    request.payload = Bytes(AsBytes(payload).begin(), AsBytes(payload).end());
    return request;
  }

  SimulatedClock clock_{1'000'000, /*auto_tick=*/7};
  std::unique_ptr<MemoryWormDevice> media_;
  SlowBurnDevice* device_ = nullptr;
  std::unique_ptr<LogService> service_;
};

TEST_F(BatcherTest, LoneForcedAppendDwellsAFullHold) {
  GroupCommitOptions options;
  options.max_hold_us = 50'000;
  GroupCommitBatcher batcher(service_.get(), options);
  batcher.Start();
  Histogram* dwell = ObsRegistry().histogram("clio.net.batch.dwell_us");
  const uint64_t dwell_before = dwell->sum();

  const auto start = Clock::now();
  ASSERT_OK(batcher.Append(Forced("alone")).status());
  const auto elapsed = Clock::now() - start;

  // Nobody else came, so the batch waited out the whole hold.
  EXPECT_GE(elapsed, microseconds(options.max_hold_us));
  EXPECT_GE(dwell->sum() - dwell_before, options.max_hold_us);
  EXPECT_EQ(batcher.batches_committed(), 1u);
  batcher.Stop();
}

// An append that arrives while the previous batch commits has waited that
// commit out, but its own hold starts only when the commit ends: the
// replies about to go out bring the company it holds for. A hold timed
// from its enqueue would have expired during the commit, and it would
// commit alone right after.
TEST_F(BatcherTest, AppendQueuedDuringACommitHoldsFromTheCommitsEnd) {
  constexpr microseconds kHold = milliseconds(50);
  constexpr microseconds kBurn = milliseconds(100);
  device_->Slow(kBurn);
  GroupCommitOptions options;
  options.max_hold_us = static_cast<uint64_t>(kHold.count());
  GroupCommitBatcher batcher(service_.get(), options);
  batcher.Start();

  const auto start = Clock::now();
  std::thread first([&] { EXPECT_OK(batcher.Append(Forced("first")).status()); });
  device_->AwaitBurn();  // the first batch is committing
  ASSERT_OK(batcher.Append(Forced("second")).status());
  const auto elapsed = Clock::now() - start;
  first.join();

  // first: hold + burn; second: a full hold after that, then its burn.
  EXPECT_GE(elapsed, 2 * kHold + 2 * kBurn);
  EXPECT_EQ(batcher.batches_committed(), 2u);
  batcher.Stop();
}

// Stop() commits what is queued at once; with an hour-long hold, a drain
// that held would never finish.
TEST_F(BatcherTest, StopDrainsWithoutHolding) {
  GroupCommitOptions options;
  options.max_hold_us = 3'600'000'000;
  // An append that Stop() beats to the queue fails with kUnavailable and
  // shows nothing; give it longer each round until it was queued first.
  for (milliseconds head_start(10);; head_start *= 2) {
    ASSERT_LE(head_start, milliseconds(10'000));
    GroupCommitBatcher batcher(service_.get(), options);
    batcher.Start();
    std::optional<Result<AppendResult>> result;
    std::thread appender([&] { result = batcher.Append(Forced("drained")); });
    std::this_thread::sleep_for(head_start);
    const auto stop_start = Clock::now();
    batcher.Stop();
    appender.join();
    ASSERT_TRUE(result.has_value());
    if (!result->ok() &&
        result->status().code() == StatusCode::kUnavailable) {
      continue;
    }
    ASSERT_OK(result->status());
    EXPECT_LT(Clock::now() - stop_start, microseconds(options.max_hold_us));
    EXPECT_EQ(batcher.entries_committed(), 1u);
    return;
  }
}

}  // namespace
}  // namespace clio
