// A WormDevice view that forwards every call to a device it does not own.
// Lets a test or bench destroy a service ("crash") while the media
// survives, and is the base of every decorator that intercepts a few
// calls (a slow burn, a slow or flaky read, a recorder): each overrides
// only what it changes and inherits the rest of the forwarding.
#ifndef SRC_DEVICE_BORROWED_DEVICE_H_
#define SRC_DEVICE_BORROWED_DEVICE_H_

#include <cstdint>
#include <span>

#include "src/device/block_device.h"

namespace clio {

class BorrowedDevice : public WormDevice {
 public:
  explicit BorrowedDevice(WormDevice* base) : base_(base) {}

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t capacity_blocks() const override {
    return base_->capacity_blocks();
  }
  Status ReadBlock(uint64_t i, std::span<std::byte> out) override {
    return base_->ReadBlock(i, out);
  }
  Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                              std::span<std::byte> out) override {
    return base_->ReadBlocks(first, count, out);
  }
  Result<uint64_t> AppendBlock(std::span<const std::byte> d) override {
    return base_->AppendBlock(d);
  }
  Status InvalidateBlock(uint64_t i) override {
    return base_->InvalidateBlock(i);
  }
  Result<uint64_t> QueryEnd() override { return base_->QueryEnd(); }
  WormBlockState BlockState(uint64_t i) const override {
    return base_->BlockState(i);
  }
  bool serves_one_call_at_a_time() const override {
    return base_->serves_one_call_at_a_time();
  }
  const DeviceStats& stats() const override { return base_->stats(); }
  void ResetStats() override { base_->ResetStats(); }

 private:
  WormDevice* base_;
};

}  // namespace clio

#endif  // SRC_DEVICE_BORROWED_DEVICE_H_
