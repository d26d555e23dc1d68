// Battery-backed-RAM staging for the tail block of a log device.
//
// Paper §2.3.1: on a purely write-once device, frequent forced writes burn
// a partial block each time (internal fragmentation); "ideally ... the tail
// end of the log device is implemented as rewriteable non-volatile storage,
// such as battery backed-up RAM". NvramTail models that component: a
// one-block rewritable buffer that survives server crashes (the harness
// keeps the object alive across simulated reboots; optionally it persists
// to a file so whole-process restarts survive too).
#ifndef SRC_DEVICE_NVRAM_TAIL_H_
#define SRC_DEVICE_NVRAM_TAIL_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

class NvramTail {
 public:
  explicit NvramTail(uint32_t block_size) : block_size_(block_size) {}

  uint32_t block_size() const { return block_size_; }

  // Rewritable store of the current partial tail block. `used` bytes of
  // `data` are meaningful. Overwrites whatever was staged before —
  // precisely the operation a pure WORM device cannot do.
  Status Store(uint64_t block_index, std::span<const std::byte> data);

  bool has_data() const { return has_data_; }
  uint64_t block_index() const { return block_index_; }
  std::span<const std::byte> data() const { return data_; }

  // Called once the tail block has been burned to the WORM device.
  void Clear();

  // Counters for the fragmentation ablation bench.
  uint64_t store_count() const { return store_count_; }

  // -- Checkpoint sidecar (DESIGN.md §17) --
  //
  // A second, independent rewritable slot holding the volume's recovery
  // checkpoint (src/index/checkpoint.h): a base record followed by
  // append-only delta records. StoreCheckpoint replaces the slot with a
  // fresh base; AppendCheckpoint adds a delta after the records already
  // there. The writer compacts into a new base before the deltas outgrow
  // a quarter of the base, so the slot holds at most 1.25x one base
  // record. It is not limited to one block: battery-backed RAM is sized
  // in kilobytes-to-megabytes while the staged tail needs exactly one
  // block, so the checkpoint gets the rest. The two slots have
  // independent lifetimes — burning the tail clears only the tail slot;
  // rolling to a new volume clears only the checkpoint.
  void StoreCheckpoint(std::span<const std::byte> blob);
  void AppendCheckpoint(std::span<const std::byte> record);
  bool has_checkpoint() const { return has_checkpoint_; }
  std::span<const std::byte> checkpoint() const { return checkpoint_; }
  void ClearCheckpoint();
  // Records written through either call.
  uint64_t checkpoint_store_count() const { return checkpoint_store_count_; }

 private:
  uint32_t block_size_;
  bool has_data_ = false;
  uint64_t block_index_ = 0;
  Bytes data_;
  uint64_t store_count_ = 0;
  bool has_checkpoint_ = false;
  Bytes checkpoint_;
  uint64_t checkpoint_store_count_ = 0;
};

}  // namespace clio

#endif  // SRC_DEVICE_NVRAM_TAIL_H_
