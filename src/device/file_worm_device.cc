#include "src/device/file_worm_device.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/bytes.h"

namespace clio {
namespace {

// Sidecar state bytes. kUnwritten must be 0 so a sparse/short state file
// reads as "virgin".
uint8_t EncodeState(WormBlockState s) { return static_cast<uint8_t>(s); }

WormBlockState DecodeState(uint8_t b) {
  if (b > static_cast<uint8_t>(WormBlockState::kInvalidated)) {
    return WormBlockState::kUnwritten;
  }
  return static_cast<WormBlockState>(b);
}

}  // namespace

Result<std::unique_ptr<FileWormDevice>> FileWormDevice::Open(
    const std::string& path, const FileWormOptions& options) {
  if (options.block_size == 0 || options.capacity_blocks == 0) {
    return InvalidArgument("bad device geometry");
  }
  std::FILE* data_file = std::fopen(path.c_str(), "r+b");
  if (data_file == nullptr) {
    data_file = std::fopen(path.c_str(), "w+b");
  }
  if (data_file == nullptr) {
    return Unavailable("cannot open device file " + path);
  }
  const std::string state_path = path + ".state";
  std::FILE* state_file = std::fopen(state_path.c_str(), "r+b");
  if (state_file == nullptr) {
    state_file = std::fopen(state_path.c_str(), "w+b");
  }
  if (state_file == nullptr) {
    std::fclose(data_file);
    return Unavailable("cannot open state file " + state_path);
  }

  // Load existing per-block states.
  std::vector<WormBlockState> states(options.capacity_blocks,
                                     WormBlockState::kUnwritten);
  std::vector<uint8_t> raw(options.capacity_blocks, 0);
  std::fseek(state_file, 0, SEEK_SET);
  size_t n = std::fread(raw.data(), 1, raw.size(), state_file);
  for (size_t i = 0; i < n; ++i) {
    states[i] = DecodeState(raw[i]);
  }

  return std::unique_ptr<FileWormDevice>(
      new FileWormDevice(options, data_file, state_file, std::move(states)));
}

FileWormDevice::FileWormDevice(const FileWormOptions& options,
                               std::FILE* data_file, std::FILE* state_file,
                               std::vector<WormBlockState> states)
    : options_(options),
      data_file_(data_file),
      state_file_(state_file),
      states_(std::move(states)) {
  frontier_ = AdvanceFrontier(0);
}

FileWormDevice::~FileWormDevice() {
  std::fclose(data_file_);
  std::fclose(state_file_);
}

uint64_t FileWormDevice::AdvanceFrontier(uint64_t from) const {
  uint64_t i = from;
  while (i < states_.size() && states_[i] != WormBlockState::kUnwritten) {
    ++i;
  }
  return i;
}

Status FileWormDevice::ReadBlock(uint64_t index, std::span<std::byte> out) {
  ++stats_.reads;
  static Counter* reads = ObsRegistry().counter("clio.device.reads");
  static Histogram* read_us = ObsRegistry().histogram("clio.device.read_us");
  reads->Increment();
  StageTimer timer(read_us);
  if (index >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return OutOfRange("read beyond device capacity");
  }
  if (out.size() != options_.block_size) {
    ++stats_.failed_ops;
    return InvalidArgument("read buffer size != block size");
  }
  switch (states_[index]) {
    case WormBlockState::kUnwritten:
      ++stats_.failed_ops;
      return NotWritten("block " + std::to_string(index) + " never written");
    case WormBlockState::kInvalidated:
      std::fill(out.begin(), out.end(), std::byte{0xFF});
      return Status::Ok();
    default:
      break;
  }
  if (std::fseek(data_file_,
                 static_cast<long>(index * options_.block_size),
                 SEEK_SET) != 0 ||
      std::fread(out.data(), 1, out.size(), data_file_) != out.size()) {
    ++stats_.failed_ops;
    return Unavailable("I/O error reading device file");
  }
  return Status::Ok();
}

Status FileWormDevice::WriteBlockAt(uint64_t index,
                                    std::span<const std::byte> data,
                                    WormBlockState new_state) {
  if (std::fseek(data_file_,
                 static_cast<long>(index * options_.block_size),
                 SEEK_SET) != 0 ||
      std::fwrite(data.data(), 1, data.size(), data_file_) != data.size()) {
    return Unavailable("I/O error writing device file");
  }
  std::fflush(data_file_);
  uint8_t state_byte = EncodeState(new_state);
  if (std::fseek(state_file_, static_cast<long>(index), SEEK_SET) != 0 ||
      std::fwrite(&state_byte, 1, 1, state_file_) != 1) {
    return Unavailable("I/O error writing state file");
  }
  std::fflush(state_file_);
  states_[index] = new_state;
  return Status::Ok();
}

Result<uint64_t> FileWormDevice::AppendBlock(std::span<const std::byte> data) {
  if (data.size() != options_.block_size) {
    ++stats_.failed_ops;
    return InvalidArgument("append size != block size");
  }
  frontier_ = AdvanceFrontier(frontier_);
  if (frontier_ >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return NoSpace("volume full");
  }
  uint64_t index = frontier_;
  static Counter* burns = ObsRegistry().counter("clio.device.burns");
  static Histogram* burn_us = ObsRegistry().histogram("clio.device.burn_us");
  StageTimer timer(burn_us);
  CLIO_RETURN_IF_ERROR(WriteBlockAt(index, data, WormBlockState::kWritten));
  burns->Increment();
  ++stats_.appends;
  frontier_ = AdvanceFrontier(index + 1);
  return index;
}

Status FileWormDevice::InvalidateBlock(uint64_t index) {
  if (index >= options_.capacity_blocks) {
    ++stats_.failed_ops;
    return OutOfRange("invalidate beyond device capacity");
  }
  Bytes ones(options_.block_size, std::byte{0xFF});
  CLIO_RETURN_IF_ERROR(
      WriteBlockAt(index, ones, WormBlockState::kInvalidated));
  ++stats_.invalidations;
  if (index == frontier_) {
    frontier_ = AdvanceFrontier(frontier_);
  }
  return Status::Ok();
}

Result<uint64_t> FileWormDevice::QueryEnd() {
  ++stats_.end_queries;
  if (!options_.supports_end_query) {
    ++stats_.failed_ops;
    return Unimplemented("device does not report its write frontier");
  }
  for (uint64_t i = states_.size(); i > 0; --i) {
    if (states_[i - 1] != WormBlockState::kUnwritten) {
      return i;
    }
  }
  return uint64_t{0};
}

WormBlockState FileWormDevice::BlockState(uint64_t index) const {
  if (index >= states_.size()) {
    return WormBlockState::kUnwritten;
  }
  return states_[index];
}

}  // namespace clio
