// Block fetch path: cache in front of the log device, with per-operation
// cost accounting. The paper's read-cost analysis (§3.3) is entirely in
// terms of which block fetches hit the server's block cache and which go to
// the device, so every fetch can report into an OpStats.
#ifndef SRC_CLIO_CACHED_READER_H_
#define SRC_CLIO_CACHED_READER_H_

#include <cstdint>

#include "src/cache/block_cache.h"
#include "src/clio/types.h"
#include "src/device/block_device.h"
#include "src/util/status.h"

namespace clio {

class Counter;  // src/obs/metrics.h

class CachedBlockReader {
 public:
  // `cache_device_id` namespaces this device's blocks within the shared
  // buffer pool. A zero-capacity cache gives uncached reads (the paper's
  // no-caching analyses).
  CachedBlockReader(WormDevice* device, BlockCache* cache,
                    uint64_t cache_device_id)
      : device_(device), cache_(cache), cache_device_id_(cache_device_id) {}

  // Fetches a block image, consulting the cache first; a miss reads
  // straight into a frame. Never caches failed reads.
  // kNotWritten/kOutOfRange propagate from the device.
  Result<BlockImage> Fetch(uint64_t block, OpStats* stats);

  // Fetch for a forward scan: a cache miss pulls `block` AND up to
  // `readahead` following blocks (bounded by `limit`, exclusive) from the
  // device in one pass (WormDevice::ReadBlocks), caching them all. Only
  // the demanded block is charged to `stats`; the speculative blocks show
  // up later as cache hits. Speculative blocks count into
  // `readahead_counter` when given, else into the default
  // clio.cache.readahead_blocks — bulk internal scans (extent index
  // rebuild, checkpoint replay) pass their own counter so demand-path
  // readahead stats stay clean. The pass lands in a per-thread buffer;
  // only blocks not already cached are copied into frames. Falls back to
  // Fetch when readahead is off.
  Result<BlockImage> FetchSequential(uint64_t block, uint64_t limit,
                                     uint32_t readahead, OpStats* stats,
                                     Counter* readahead_counter = nullptr);

  // One planned device pass for recovery's read plan (DESIGN.md §17):
  // reads [first, first + count) (ReadBlock when count is 1), stopping at
  // the first block that fails, and admits the blocks read in
  // [max(first, 1), cache_below) into the cache. Returns the blocks read,
  // in the calling thread's pass buffer (valid until its next pass); an
  // error only if `first` itself failed. Charges no stats or counters:
  // the caller keeps the pass ledger.
  Result<std::span<const std::byte>> ReadRun(uint64_t first, uint64_t count,
                                             uint64_t cache_below);

  // Caches a freshly burned block image (write path keeps the cache warm,
  // mirroring the paper's observation that recent data is read from cache).
  void Put(uint64_t block, std::span<const std::byte> image);

  // Drops a block (after invalidation re-burns it to 1s).
  void Evict(uint64_t block);

  WormDevice* device() { return device_; }
  uint64_t cache_device_id() const { return cache_device_id_; }

 private:
  WormDevice* device_;
  BlockCache* cache_;
  uint64_t cache_device_id_;
};

}  // namespace clio

#endif  // SRC_CLIO_CACHED_READER_H_
