// LRU block cache — the file server "buffer pool" (paper §1: the log
// service reuses the existing file-server mechanism such as the buffer
// pool; §3.3: the cost of a log read is determined primarily by the number
// of cache misses).
//
// Block images live in frames of the cache's block size, carved lazily
// from one anonymous mapping per cache; the mapping is released whole when
// the cache and every image of its frames are gone. A fill takes a free
// frame, or the frame of the coldest block no reader holds; lookups hand
// out BlockImages (src/cache/block_image.h), and holding one pins the
// frame: the evictor passes it over, and a frame dropped from the cache
// while held rejoins the pool when its last image is released. Keys are
// (device_id, block_index) so one cache serves several mounted volumes
// plus the conventional file systems. A block the pool cannot take — of
// another size, into a zero-capacity cache, or when every frame at the
// LRU tail is held — is handed back in a standalone frame and not cached.
//
// Thread safety: the cache is internally synchronized by lock striping.
// Keys hash onto independent shards (each its own mutex and LRU list; the
// free frames are one list, touched only while the pool grows or takes
// frames back), so concurrent readers contend only when they touch the
// same shard — the write-once log's concurrent-read story (DESIGN.md §12)
// leans on this. LRU order is exact within a shard and approximate across
// the whole cache; small caches (below one block per shard) collapse to a
// single shard so the unit-testable exact-LRU behaviour is preserved.
#ifndef SRC_CACHE_BLOCK_CACHE_H_
#define SRC_CACHE_BLOCK_CACHE_H_

#include <cstdint>
#include <span>

#include "src/cache/block_image.h"
#include "src/util/status.h"

namespace clio {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  // Insert() calls that found the key already cached. Blocks are
  // write-once, so a double insert with *different* bytes is a bug
  // upstream (debug builds assert byte equality).
  uint64_t double_inserts = 0;
  // Standalone frames made because every frame at the LRU tail was held:
  // nonzero in steady state means images are held too long or too many.
  uint64_t frames_allocated = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
  void Reset() { *this = CacheStats{}; }
};

class BlockCache {
 public:
  // `capacity_blocks` frames of `frame_bytes` each. Capacity 0 means
  // "cache nothing" (every lookup misses), which benches use to model the
  // paper's no-caching analyses.
  BlockCache(size_t capacity_blocks, uint32_t frame_bytes);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  struct Key {
    uint64_t device_id;
    uint64_t block_index;
    bool operator==(const Key&) const = default;
  };

  // Returns the cached image and bumps it to most-recently-used, or an
  // empty image on miss.
  BlockImage Lookup(const Key& key);

  // Copies `bytes` into a frame cached under `key` and returns its image.
  // Blocks are write-once, so if the key is already cached the EXISTING
  // image is kept and returned without copying (the bytes cannot
  // legitimately differ; see CacheStats::double_inserts).
  BlockImage Insert(const Key& key, std::span<const std::byte> bytes);

  // Insert without handing back an image: readahead blocks and freshly
  // burned ones, which no caller reads yet.
  void Admit(const Key& key, std::span<const std::byte> bytes);

  // Reads a missing block straight into a frame: `read` fills the frame's
  // `size` bytes (a std::span<std::byte>) outside any lock and returns a
  // Status; on success the frame is cached under `key` as by Insert. A
  // failed read caches nothing.
  template <typename ReadFn>
  Result<BlockImage> Fill(const Key& key, uint32_t size, ReadFn&& read) {
    BlockImage frame = TakeFrame(key, size);
    CLIO_RETURN_IF_ERROR(read(frame.writable()));
    return Publish(key, std::move(frame));
  }

  // Unconditionally (re)places the block: the REWRITABLE-device variant,
  // used by the conventional file systems (src/vfs) whose blocks change on
  // every WriteBlock. The block gets a new frame; holders of an image of
  // the old one keep that immutable snapshot. Write-once callers use
  // Insert.
  void Replace(const Key& key, std::span<const std::byte> bytes);

  // Drops one block / every block of a device. Used when a block is
  // invalidated on media or a volume is unmounted.
  void Erase(const Key& key);
  void EraseDevice(uint64_t device_id);
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_blocks_; }

  // Frames carved from the mapping so far (at most capacity()).
  size_t frames_carved() const;

  // Aggregated over all shards (a point-in-time sum, by value).
  CacheStats stats() const;
  void ResetStats();

 private:
  // A writable frame for `key`'s shard, held by the returned image alone:
  // a pool frame when the pool can spare one, else a standalone frame.
  BlockImage TakeFrame(const Key& key, uint32_t size);
  // Caches a frame from TakeFrame under `key` (or, if the key got cached
  // meanwhile, recycles it and returns the cached image).
  BlockImage Publish(const Key& key, BlockImage frame);

  const size_t capacity_blocks_;
  const uint32_t frame_bytes_;
  FramePool* pool_;  // shared with held frames; outlives the cache if held
};

}  // namespace clio

#endif  // SRC_CACHE_BLOCK_CACHE_H_
