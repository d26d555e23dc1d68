#include "src/device/memory_worm_device.h"

#include <algorithm>
#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {

MemoryWormDevice::MemoryWormDevice(const MemoryWormOptions& options)
    : options_(options) {}

Status MemoryWormDevice::ReadBlock(uint64_t index, std::span<std::byte> out) {
  ++stats_.reads;
  static Counter* reads = ObsRegistry().counter("clio.device.reads");
  static Histogram* read_us = ObsRegistry().histogram("clio.device.read_us");
  reads->Increment();
  StageTimer timer(read_us);
  if (index >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return OutOfRange("read of block " + std::to_string(index) +
                      " beyond device capacity");
  }
  if (out.size() != options_.block_size) {
    ++stats_.failed_ops;
    return InvalidArgument("read buffer size != block size");
  }
  WormBlockState state = BlockState(index);
  switch (state) {
    case WormBlockState::kUnwritten:
      ++stats_.failed_ops;
      return NotWritten("block " + std::to_string(index) + " never written");
    case WormBlockState::kInvalidated:
      std::fill(out.begin(), out.end(), std::byte{0xFF});
      return Status::Ok();
    case WormBlockState::kWritten:
    case WormBlockState::kScribbled:
      std::copy(blocks_[index].begin(), blocks_[index].end(), out.begin());
      return Status::Ok();
  }
  return Internal("unreachable block state");
}

uint64_t MemoryWormDevice::AdvanceFrontier(uint64_t from) const {
  // The write head parks at the lowest block that is still virgin.
  uint64_t i = from;
  while (i < states_.size() && states_[i] != WormBlockState::kUnwritten) {
    ++i;
  }
  return i;
}

Result<uint64_t> MemoryWormDevice::AppendBlock(
    std::span<const std::byte> data) {
  if (data.size() != options_.block_size) {
    ++stats_.failed_ops;
    return InvalidArgument("append size != block size");
  }
  frontier_ = AdvanceFrontier(frontier_);
  if (frontier_ >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return NoSpace("volume full (" + std::to_string(frontier_) + " blocks)");
  }
  ++stats_.appends;
  static Counter* burns = ObsRegistry().counter("clio.device.burns");
  static Histogram* burn_us = ObsRegistry().histogram("clio.device.burn_us");
  burns->Increment();
  StageTimer timer(burn_us);
  uint64_t index = frontier_;
  if (blocks_.size() <= index) {
    blocks_.resize(index + 1);
    states_.resize(index + 1, WormBlockState::kUnwritten);
  }
  blocks_[index].assign(data.begin(), data.end());
  states_[index] = WormBlockState::kWritten;
  frontier_ = AdvanceFrontier(index + 1);
  return index;
}

Status MemoryWormDevice::InvalidateBlock(uint64_t index) {
  if (index >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return OutOfRange("invalidate beyond device capacity");
  }
  ++stats_.invalidations;
  static Counter* invalidations =
      ObsRegistry().counter("clio.device.invalidations");
  invalidations->Increment();
  if (blocks_.size() <= index) {
    blocks_.resize(index + 1);
    states_.resize(index + 1, WormBlockState::kUnwritten);
  }
  // Burning to all 1s is idempotent and legal from any prior state.
  blocks_[index].assign(options_.block_size, std::byte{0xFF});
  states_[index] = WormBlockState::kInvalidated;
  if (index == frontier_) {
    frontier_ = AdvanceFrontier(frontier_);
  }
  return Status::Ok();
}

Result<uint64_t> MemoryWormDevice::QueryEnd() {
  ++stats_.end_queries;
  if (!options_.supports_end_query) {
    ++stats_.failed_ops;
    return Unimplemented("device does not report its write frontier");
  }
  // One past the highest block that is not virgin.
  for (uint64_t i = states_.size(); i > 0; --i) {
    if (states_[i - 1] != WormBlockState::kUnwritten) {
      return i;
    }
  }
  return uint64_t{0};
}

WormBlockState MemoryWormDevice::BlockState(uint64_t index) const {
  if (index >= states_.size()) {
    return WormBlockState::kUnwritten;
  }
  return states_[index];
}

void MemoryWormDevice::Scribble(uint64_t index,
                                std::span<const std::byte> garbage) {
  if (index >= options_.capacity_blocks) {
    return;
  }
  if (blocks_.size() <= index) {
    blocks_.resize(index + 1);
    states_.resize(index + 1, WormBlockState::kUnwritten);
  }
  Bytes& block = blocks_[index];
  block.assign(options_.block_size, std::byte{0});
  size_t n = std::min<size_t>(garbage.size(), options_.block_size);
  std::copy(garbage.begin(), garbage.begin() + n, block.begin());
  states_[index] = WormBlockState::kScribbled;
  if (index == frontier_) {
    frontier_ = AdvanceFrontier(frontier_);
  }
}

}  // namespace clio
