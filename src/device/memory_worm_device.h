// In-memory write-once device. The workhorse for tests and benchmarks: it
// enforces the append-only contract exactly, tracks per-block lifecycle
// state, and exposes a Scribble hook that deposits garbage the way a
// wild write during a crash would (paper §2.3.2).
#ifndef SRC_DEVICE_MEMORY_WORM_DEVICE_H_
#define SRC_DEVICE_MEMORY_WORM_DEVICE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/device/block_device.h"
#include "src/util/bytes.h"

namespace clio {

struct MemoryWormOptions {
  uint32_t block_size = 1024;
  uint64_t capacity_blocks = 1 << 20;
  // Whether QueryEnd() is supported. The paper notes the end may have to be
  // found by binary search "if this block cannot be found by directly
  // querying the device" — disable to exercise that path.
  bool supports_end_query = true;
};

class MemoryWormDevice : public WormDevice {
 public:
  explicit MemoryWormDevice(const MemoryWormOptions& options);

  uint32_t block_size() const override { return options_.block_size; }
  uint64_t capacity_blocks() const override {
    return options_.capacity_blocks;
  }

  Status ReadBlock(uint64_t index, std::span<std::byte> out) override;
  Result<uint64_t> AppendBlock(std::span<const std::byte> data) override;
  Status InvalidateBlock(uint64_t index) override;
  Result<uint64_t> QueryEnd() override;
  WormBlockState BlockState(uint64_t index) const override;
  // Reads are memory copies; concurrent ones overlap.
  bool serves_one_call_at_a_time() const override { return false; }

  const DeviceStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Reset(); }

  // -- Test/fault hooks (not part of the WormDevice contract). --

  // Deposits garbage bytes into a block regardless of its state, as a
  // hardware/software failure would. Scribbling a written block models
  // in-place corruption; scribbling an unwritten one models a wild write
  // beyond the end.
  void Scribble(uint64_t index, std::span<const std::byte> garbage);

  // Index of the lowest block that is still unwritten (the write frontier).
  uint64_t frontier() const { return frontier_; }

 private:
  uint64_t AdvanceFrontier(uint64_t from) const;

  MemoryWormOptions options_;
  // Block storage is allocated lazily: blocks_ grows as the frontier moves.
  std::vector<Bytes> blocks_;
  std::vector<WormBlockState> states_;
  uint64_t frontier_ = 0;
  DeviceStats stats_;
};

}  // namespace clio

#endif  // SRC_DEVICE_MEMORY_WORM_DEVICE_H_
