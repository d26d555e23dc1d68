#include "src/device/nvram_tail.h"

namespace clio {

Status NvramTail::Store(uint64_t block_index,
                        std::span<const std::byte> data) {
  if (data.size() > block_size_) {
    return InvalidArgument("staged tail larger than a block");
  }
  block_index_ = block_index;
  data_.assign(data.begin(), data.end());
  has_data_ = true;
  ++store_count_;
  return Status::Ok();
}

void NvramTail::Clear() {
  has_data_ = false;
  data_.clear();
}

void NvramTail::StoreCheckpoint(std::span<const std::byte> blob) {
  checkpoint_.assign(blob.begin(), blob.end());
  has_checkpoint_ = true;
  ++checkpoint_store_count_;
}

void NvramTail::AppendCheckpoint(std::span<const std::byte> record) {
  checkpoint_.insert(checkpoint_.end(), record.begin(), record.end());
  has_checkpoint_ = true;
  ++checkpoint_store_count_;
}

void NvramTail::ClearCheckpoint() {
  has_checkpoint_ = false;
  checkpoint_.clear();
}

}  // namespace clio
