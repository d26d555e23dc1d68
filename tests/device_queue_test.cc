// The device submission queue (DESIGN.md §12, "One door to the device"):
// on a device that serves one call at a time, concurrent readers never
// overlap on it and each gets its own bytes; calls that queue behind a
// busy device run back to back on the reader's I/O thread under their
// callers' trace ids; a device whose calls overlap is called by every
// caller directly; and a volume whose I/O thread sits idle shuts down
// cleanly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/cache/block_cache.h"
#include "src/clio/cached_reader.h"
#include "src/clio/log_service.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace clio {
namespace {

constexpr uint32_t kBlockBytes = 512;

// Every byte of block `b` reads back as this pattern.
std::byte Pattern(uint64_t block, size_t offset) {
  return static_cast<std::byte>((block * 131 + offset) & 0xff);
}

void BurnPatternedBlocks(WormDevice* device, uint64_t count) {
  std::vector<std::byte> image(kBlockBytes);
  for (uint64_t b = 0; b < count; ++b) {
    for (size_t i = 0; i < image.size(); ++i) {
      image[i] = Pattern(b, i);
    }
    ASSERT_OK(device->AppendBlock(image).status());
  }
}

bool HoldsPattern(uint64_t first, std::span<const std::byte> bytes) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != Pattern(first + i / kBlockBytes, i % kBlockBytes)) {
      return false;
    }
  }
  return true;
}

// Records every read call (its first block, thread and trace id) and
// counts calls that entered while another was still on the device. One
// block can be gated: its next read waits until Open(). It reports that
// it serves one call at a time unless told its calls overlap.
class RecordingDevice : public BorrowedDevice {
 public:
  struct Call {
    uint64_t block;
    std::thread::id thread;
    uint64_t trace_id;
  };

  explicit RecordingDevice(WormDevice* media, bool one_at_a_time = true)
      : BorrowedDevice(media), one_at_a_time_(one_at_a_time) {}

  bool serves_one_call_at_a_time() const override { return one_at_a_time_; }

  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    Enter(i);
    Status read = BorrowedDevice::ReadBlock(i, out);
    --in_flight_;
    return read;
  }
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    Enter(first);
    Result<uint64_t> read = BorrowedDevice::ReadBlocks(first, count, out);
    --in_flight_;
    return read;
  }

  // Holds the next read of `block`; call only while no read is held.
  void Gate(uint64_t block) {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = block;
    held_ = false;
    open_ = false;
  }
  void AwaitGated() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return held_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }
  std::vector<Call> calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  int overlaps() const { return overlaps_.load(); }

 private:
  void Enter(uint64_t block) {
    if (in_flight_.fetch_add(1) != 0) {
      ++overlaps_;
    }
    std::unique_lock<std::mutex> lock(mu_);
    calls_.push_back({block, std::this_thread::get_id(), CurrentTraceId()});
    if (gated_ == block) {
      gated_.reset();
      held_ = true;
      changed_.notify_all();
      changed_.wait(lock, [&] { return open_; });
    }
    lock.unlock();
    // Stay on the device a little, so an overlapping call would show.
    const uint64_t until = TraceNowUs() + 5;
    while (TraceNowUs() < until) {
    }
  }

  const bool one_at_a_time_;
  std::atomic<int> in_flight_{0};
  std::atomic<int> overlaps_{0};
  std::mutex mu_;
  std::condition_variable changed_;
  std::optional<uint64_t> gated_;
  bool held_ = false;
  bool open_ = false;
  std::vector<Call> calls_;
};

std::unique_ptr<MemoryWormDevice> MakeMedia() {
  MemoryWormOptions options;
  options.block_size = kBlockBytes;
  options.capacity_blocks = 256;
  return std::make_unique<MemoryWormDevice>(options);
}

// Waits until `reader` holds `depth` queued calls.
void AwaitQueued(const CachedBlockReader& reader, size_t depth) {
  while (reader.queued() < depth) {
    std::this_thread::yield();
  }
}

TEST(DeviceQueue, ConcurrentReadersNeverOverlapAndReadTheirOwnBytes) {
  auto media = MakeMedia();
  constexpr uint64_t kBlocks = 200;
  BurnPatternedBlocks(media.get(), kBlocks);
  RecordingDevice device(media.get());
  BlockCache cache(/*capacity_blocks=*/0, kBlockBytes);  // every read misses
  CachedBlockReader reader(&device, &cache, /*cache_device_id=*/1);

  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < 150; ++i) {
        const uint64_t block = 1 + rng.Below(kBlocks - 9);
        bool exact = false;
        switch (i % 3) {
          case 0: {
            auto image = reader.Fetch(block, nullptr);
            exact = image.ok() && HoldsPattern(block, image.value().bytes());
            break;
          }
          case 1: {
            auto image = reader.FetchSequential(
                block, [block] { return block + 8; }, nullptr);
            exact = image.ok() && HoldsPattern(block, image.value().bytes());
            break;
          }
          default: {
            auto run = reader.ReadRun(block, 8, /*cache_below=*/0);
            exact = run.ok() && run.value().size() == 8 * kBlockBytes &&
                    HoldsPattern(block, run.value());
          }
        }
        if (!exact) {
          ++wrong;
        }
      }
    });
  }
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(device.overlaps(), 0);
  EXPECT_EQ(device.calls().size(), 8u * 150u);
}

TEST(DeviceQueue, QueuedCallsRunBackToBackUnderTheirCallersTraceIds) {
  auto media = MakeMedia();
  BurnPatternedBlocks(media.get(), 16);
  RecordingDevice device(media.get());
  BlockCache cache(/*capacity_blocks=*/0, kBlockBytes);
  CachedBlockReader reader(&device, &cache, /*cache_device_id=*/1);
  Histogram* wait_us = ObsRegistry().histogram("clio.device.queue_wait_us");
  const uint64_t waits_before = wait_us->count();

  // Caller i reads block 10 + i under trace id 100 + i; caller 0's call is
  // held on the device while callers 1..3 queue behind it, in order.
  std::vector<std::thread::id> callers(4);
  std::vector<int> exact(4, 0);
  auto call = [&](int i) {
    callers[i] = std::this_thread::get_id();
    ScopedTraceContext trace(100 + i);
    auto image = reader.Fetch(10 + i, nullptr);
    exact[i] = image.ok() && HoldsPattern(10 + i, image.value().bytes());
  };
  device.Gate(10);
  std::vector<std::thread> threads;
  threads.emplace_back(call, 0);
  device.AwaitGated();
  for (int i = 1; i <= 3; ++i) {
    threads.emplace_back(call, i);
    AwaitQueued(reader, i);
  }
  device.Open();
  for (auto& t : threads) {
    t.join();
  }

  const std::vector<RecordingDevice::Call> calls = device.calls();
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(calls[0].block, 10u);  // ran inline on its caller
  EXPECT_EQ(calls[0].thread, callers[0]);
  EXPECT_EQ(calls[0].trace_id, 100u);
  const std::thread::id io_thread = calls[1].thread;
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(exact[i]) << "caller " << i;
    EXPECT_EQ(calls[i].block, 10u + i);  // first in, first out
    EXPECT_EQ(calls[i].trace_id, 100u + i);
    EXPECT_EQ(calls[i].thread, io_thread);
    EXPECT_NE(calls[i].thread, callers[i]);
  }
  EXPECT_TRUE(exact[0]);
  EXPECT_EQ(device.overlaps(), 0);
  EXPECT_EQ(wait_us->count() - waits_before, 4u);  // 0 for the inline call
}

TEST(DeviceQueue, ADeviceWhoseCallsOverlapIsCalledByEveryCallerDirectly) {
  auto media = MakeMedia();
  BurnPatternedBlocks(media.get(), 16);
  RecordingDevice device(media.get(), /*one_at_a_time=*/false);
  BlockCache cache(/*capacity_blocks=*/0, kBlockBytes);
  CachedBlockReader reader(&device, &cache, /*cache_device_id=*/1);

  // Caller 0's read is held on the device; caller 1's read still goes to
  // the device at once, on caller 1's own thread.
  device.Gate(10);
  std::thread held([&] { EXPECT_OK(reader.Fetch(10, nullptr).status()); });
  device.AwaitGated();
  std::thread::id caller;
  std::thread direct([&] {
    caller = std::this_thread::get_id();
    auto image = reader.Fetch(11, nullptr);
    EXPECT_TRUE(image.ok() && HoldsPattern(11, image.value().bytes()));
  });
  direct.join();
  device.Open();
  held.join();

  const std::vector<RecordingDevice::Call> calls = device.calls();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[1].block, 11u);
  EXPECT_EQ(calls[1].thread, caller);
  EXPECT_EQ(device.overlaps(), 1);
  EXPECT_EQ(reader.queued(), 0u);
}

TEST(DeviceQueue, VolumeWithAnIdleIoThreadIsDestroyedCleanly) {
  auto media = MakeMedia();
  SimulatedClock clock(1'000'000, 7);
  auto owned = std::make_unique<RecordingDevice>(media.get());
  RecordingDevice* device = owned.get();
  auto created = LogService::Create(std::move(owned), &clock, {});
  ASSERT_OK(created.status());
  std::unique_ptr<LogService> service = std::move(created).value();
  ASSERT_OK(service->CreateLogFile("/q").status());
  WriteOptions forced;
  forced.force = true;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(service->Append("/q", AsBytes("entry"), forced).status());
  }
  service->cache().Clear();
  LogVolume* volume = service->current_volume();
  ASSERT_GE(volume->end_block(), 4u);

  // Block 2's read is held on the device while block 3's is issued; the
  // second call queues unless its thread is scheduled only after the
  // hold is released, so the pair is retried until the I/O thread ran
  // it (block 3 is read again each time: the cache is cleared).
  bool ran_queued = false;
  for (int attempt = 0; attempt < 100 && !ran_queued; ++attempt) {
    service->cache().Clear();
    std::thread::id queued_caller;
    device->Gate(2);
    std::thread held(
        [&] { EXPECT_OK(volume->GetBlock(2, nullptr).status()); });
    device->AwaitGated();
    std::thread queued([&] {
      queued_caller = std::this_thread::get_id();
      EXPECT_OK(volume->GetBlock(3, nullptr).status());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    device->Open();
    held.join();
    queued.join();
    const std::vector<RecordingDevice::Call> calls = device->calls();
    ASSERT_FALSE(calls.empty());
    EXPECT_EQ(calls.back().block, 3u);
    ran_queued = calls.back().thread != queued_caller;
  }
  EXPECT_TRUE(ran_queued);  // the I/O thread exists
  // The I/O thread is now parked on an empty queue; destroying the
  // service must wake and join it.
  service.reset();
}

}  // namespace
}  // namespace clio
