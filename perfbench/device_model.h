// The benchmark's device cost model and device-layer probe.
//
// ChargedDevice decorates the in-memory write-once media. Like a disk or
// an optical head it serves one call at a time: concurrent callers queue
// for the device port. While charging is on, every call is held until an
// absolute deadline fixed when it got the port (+ kBurnChargeUs per burn,
// + kReadChargeUs per read pass). The wait spins rather than sleeps, so
// the charge does not depend on when the scheduler wakes a sleeper (that
// can be milliseconds late). The probe records the time spent inside each
// call, how far past its deadline it returned (the scheduler's share,
// which should stay small), and, while tracing, one span per call keyed by
// the calling thread's trace id.
#ifndef PERFBENCH_DEVICE_MODEL_H_
#define PERFBENCH_DEVICE_MODEL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/common.h"
#include "src/device/block_device.h"

namespace perfbench {

enum class DeviceOp : uint8_t { kBurn, kRead };

struct DeviceSpan {
  uint64_t trace_id = 0;  // 0: no request context (scrub, batch force)
  uint64_t start_us = 0;  // on the flight recorder's clock
  uint64_t dur_us = 0;
  DeviceOp op = DeviceOp::kBurn;
};

// What the device did since the last TakeWindow().
struct DeviceWindow {
  uint64_t burns = 0;
  uint64_t read_passes = 0;
  uint64_t blocks_read = 0;
  double busy_s = 0;                  // time the port was held
  std::vector<double> burn_us;        // time inside each AppendBlock
  std::vector<double> overshoot_us;   // past the deadline, charged calls
  std::vector<DeviceSpan> spans;      // only while tracing
};

class DeviceProbe {
 public:
  void set_charging(bool on) { charging_.store(on); }
  void set_tracing(bool on) { tracing_.store(on); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  // Charges and records one finished device call that began at `start`.
  void Finish(DeviceOp op, uint64_t blocks, Clock::time_point start,
              uint64_t trace_start_us);

  DeviceWindow TakeWindow();

  // Held for the whole of each device call.
  std::mutex& port() { return port_; }

 private:
  std::mutex port_;
  std::atomic<bool> charging_{false};
  std::atomic<bool> tracing_{false};
  std::mutex mu_;
  DeviceWindow window_;
};

class ChargedDevice : public clio::WormDevice {
 public:
  // `media` outlives any one service so a restart can recover from it.
  ChargedDevice(std::shared_ptr<clio::WormDevice> media, DeviceProbe* probe)
      : media_(std::move(media)), probe_(probe) {}

  uint32_t block_size() const override { return media_->block_size(); }
  uint64_t capacity_blocks() const override {
    return media_->capacity_blocks();
  }
  clio::Status ReadBlock(uint64_t index, std::span<std::byte> out) override;
  clio::Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                                    std::span<std::byte> out) override;
  clio::Result<uint64_t> AppendBlock(std::span<const std::byte> data) override;
  clio::Status InvalidateBlock(uint64_t index) override {
    return media_->InvalidateBlock(index);
  }
  clio::Result<uint64_t> QueryEnd() override { return media_->QueryEnd(); }
  clio::WormBlockState BlockState(uint64_t index) const override {
    return media_->BlockState(index);
  }
  const clio::DeviceStats& stats() const override { return media_->stats(); }
  void ResetStats() override { media_->ResetStats(); }

 private:
  std::shared_ptr<clio::WormDevice> media_;
  DeviceProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEVICE_MODEL_H_
