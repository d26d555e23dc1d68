// Block device interfaces.
//
// The paper (§2) requires of a log device only that it be a non-volatile,
// block-oriented store supporting random-access reads and append-only
// writes; "more general types of write access are not necessary". The
// WormDevice interface captures exactly that contract, plus the one extra
// mutation write-once media physically permit: burning a block to all 1s
// (used to invalidate corrupted blocks, §2.3.2).
//
// RewritableBlockDevice is the conventional-disk interface used by the
// baseline file systems (src/vfs) and by the NVRAM staging tail.
#ifndef SRC_DEVICE_BLOCK_DEVICE_H_
#define SRC_DEVICE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "src/util/status.h"

namespace clio {

// Operation counters every device keeps. Benches read these to report the
// count-shaped columns of the paper's tables (blocks read, etc.).
//
// Counters are atomics because reads run concurrently under the service's
// shared lock (DESIGN.md §12): two readers may bump `reads` at once.
// Copying yields a point-in-time snapshot, not an atomic one.
struct DeviceStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> rewrites{0};       // rewritable devices only
  std::atomic<uint64_t> invalidations{0};  // WORM devices only
  std::atomic<uint64_t> end_queries{0};
  std::atomic<uint64_t> failed_ops{0};

  DeviceStats() = default;
  DeviceStats(const DeviceStats& o) { *this = o; }
  DeviceStats& operator=(const DeviceStats& o) {
    reads = o.reads.load();
    appends = o.appends.load();
    rewrites = o.rewrites.load();
    invalidations = o.invalidations.load();
    end_queries = o.end_queries.load();
    failed_ops = o.failed_ops.load();
    return *this;
  }

  void Reset() { *this = DeviceStats{}; }
};

// Lifecycle state of a WORM block, visible through read errors:
//  - unwritten blocks fail reads with kNotWritten;
//  - written blocks read back their burned contents;
//  - scribbled blocks (garbage deposited by a fault) read back the garbage —
//    the device cannot tell garbage from data, only higher layers can;
//  - invalidated blocks read back as all-1s.
enum class WormBlockState : uint8_t {
  kUnwritten,
  kWritten,
  kScribbled,
  kInvalidated,
};

// Append-only (write-once) block device.
//
// The write head only moves forward: Append burns the lowest-indexed block
// that is still unwritten and un-invalidated, and returns its index. This
// models the paper's preferred device, "physically incapable of writing
// anywhere except at the end of the written portion of the volume".
class WormDevice {
 public:
  virtual ~WormDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t capacity_blocks() const = 0;

  // Reads a block into `out` (must be exactly block_size bytes).
  // Fails with kNotWritten for virgin blocks and kOutOfRange beyond the
  // device. Invalidated/scribbled blocks read "successfully"; detecting
  // that their contents are not valid log data is the caller's job.
  virtual Status ReadBlock(uint64_t index, std::span<std::byte> out) = 0;

  // Reads `count` consecutive blocks starting at `first` into `out` (must
  // be exactly count * block_size bytes), stopping early at the first
  // block that fails to read. Returns the number of blocks read; an error
  // only if the FIRST block fails. The default loops ReadBlock; devices
  // with cheaper sequential access (one seek, one transfer) may override.
  // The readahead path (src/clio/cached_reader.*) uses this to fetch a
  // run of blocks in one device pass.
  virtual Result<uint64_t> ReadBlocks(uint64_t first, uint64_t count,
                                      std::span<std::byte> out) {
    const uint32_t block_bytes = block_size();
    for (uint64_t i = 0; i < count; ++i) {
      Status read =
          ReadBlock(first + i, out.subspan(i * block_bytes, block_bytes));
      if (!read.ok()) {
        if (i == 0) {
          return read;
        }
        return i;
      }
    }
    return count;
  }

  // Burns `data` (exactly block_size bytes) into the next writable block
  // and returns its index. Fails with kNoSpace when the volume is full.
  virtual Result<uint64_t> AppendBlock(std::span<const std::byte> data) = 0;

  // Burns a block to all 1s. Legal on write-once media for any block (bits
  // only move one way); used to invalidate corrupted blocks so readers can
  // skip them (§2.3.2). Invalidating a block at or past the write frontier
  // also removes it from the append path.
  virtual Status InvalidateBlock(uint64_t index) = 0;

  // Device query for the end of the written portion: one past the highest
  // block that is not kUnwritten, so a written, scribbled or invalidated
  // island past a virgin gap counts. Devices may not support this
  // (kUnimplemented), in which case the server falls back to binary
  // search (§2.3.1 / §3.4).
  virtual Result<uint64_t> QueryEnd() = 0;

  // Introspection for tests and the recovery path's fallback search.
  virtual WormBlockState BlockState(uint64_t index) const = 0;

  // True if the device serves one call at a time, as a one-head drive
  // does (§3.3): the volume then runs concurrent calls back to back from
  // a queue (DESIGN.md §12). A device whose calls overlap answers false.
  virtual bool serves_one_call_at_a_time() const { return true; }

  virtual const DeviceStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

// Conventional random-access rewritable block device.
class RewritableBlockDevice {
 public:
  virtual ~RewritableBlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t capacity_blocks() const = 0;

  virtual Status ReadBlock(uint64_t index, std::span<std::byte> out) = 0;
  virtual Status WriteBlock(uint64_t index,
                            std::span<const std::byte> data) = 0;

  virtual const DeviceStats& stats() const = 0;
  virtual void ResetStats() = 0;
};

}  // namespace clio

#endif  // SRC_DEVICE_BLOCK_DEVICE_H_
