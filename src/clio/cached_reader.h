// Block fetch path: cache in front of the log device, with per-operation
// cost accounting. The paper's read-cost analysis (§3.3) is entirely in
// terms of which block fetches hit the server's block cache and which go to
// the device, so every fetch can report into an OpStats.
//
// It is also the volume's one door to its device (DESIGN.md §12). On a
// device that serves one call at a time, a read, burn or invalidation
// runs inline when the device is idle and no call waits, else it queues
// for the reader's I/O thread; other devices are called directly.
#ifndef SRC_CLIO_CACHED_READER_H_
#define SRC_CLIO_CACHED_READER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "src/cache/block_cache.h"
#include "src/clio/types.h"
#include "src/device/block_device.h"
#include "src/util/status.h"

namespace clio {

class Counter;              // src/obs/metrics.h
struct VolumeLaneMetrics;  // src/clio/volume_writer.h

class CachedBlockReader {
 public:
  // `cache_device_id` namespaces this device's blocks within the shared
  // buffer pool. A zero-capacity cache gives uncached reads (the paper's
  // no-caching analyses).
  CachedBlockReader(WormDevice* device, BlockCache* cache,
                    uint64_t cache_device_id);
  // Joins the I/O thread, if a call ever queued. No call may be in flight.
  ~CachedBlockReader();

  // Fetches a block image, consulting the cache first; a miss reads
  // straight into a frame. Never caches failed reads.
  // kNotWritten/kOutOfRange propagate from the device.
  Result<BlockImage> Fetch(uint64_t block, OpStats* stats) {
    return FetchSequential(block, [block] { return block + 1; }, stats);
  }

  // Fetch for a planned read: a cache miss asks `plan_end` for the end of
  // its pass (a hit never plans) and pulls [block, plan_end()) from the
  // device in one call (WormDevice::ReadBlocks), caching every block it
  // returns (LogVolume::GetBlock plans the pass, DESIGN.md §12). Only the
  // demanded block is charged to `stats`; the speculative blocks show up
  // later as cache hits. Speculative blocks count into `readahead_counter`
  // when given, else into the default clio.cache.readahead_blocks — bulk
  // internal scans (extent index rebuild, checkpoint replay) pass their
  // own counter so demand-path readahead stats stay clean. The pass lands
  // in a per-thread buffer; only blocks not already cached are copied into
  // frames. A one-block pass reads straight into a frame.
  template <typename PlanEnd>
  Result<BlockImage> FetchSequential(uint64_t block, const PlanEnd& plan_end,
                                     OpStats* stats,
                                     Counter* readahead_counter = nullptr) {
    if (BlockImage hit = Lookup(block, stats)) {
      return hit;
    }
    return ReadPass(block, plan_end(), readahead_counter);
  }

  // One planned device pass for recovery's read plan (DESIGN.md §17):
  // reads [first, first + count) (ReadBlock when count is 1), stopping at
  // the first block that fails, and admits the blocks read in
  // [max(first, 1), cache_below) into the cache. Returns the blocks read,
  // in the calling thread's pass buffer (valid until its next pass); an
  // error only if `first` itself failed. Charges no stats or counters:
  // the caller keeps the pass ledger.
  Result<std::span<const std::byte>> ReadRun(uint64_t first, uint64_t count,
                                             uint64_t cache_below);

  // Fetches [first, first + images.size()) into `images` for a walk that
  // reads every block in turn (the checkpoint replay, DESIGN.md §17):
  // cached blocks are pinned from the cache, and each run of uncached
  // ones is read in one pass (ReadRun), then cached and pinned, so no
  // block is read twice however few frames the cache has. A pass stops
  // at its first block that fails; that block and the rest of its run
  // stay empty. Speculative blocks (all but a pass's first) count into
  // `readahead_counter`. Returns the passes made.
  uint64_t FetchRun(uint64_t first, std::span<BlockImage> images,
                    Counter* readahead_counter);

  // Burns `image` into the device's next writable block and returns its
  // index; a burned block is cached (the write path keeps the cache warm,
  // mirroring the paper's observation that recent data is read from cache).
  Result<uint64_t> Burn(std::span<const std::byte> image);

  // Burns `block` to all 1s (§2.3.2) and drops it from the cache.
  Status Invalidate(uint64_t block);

  // Drops a block from the cache.
  void Evict(uint64_t block);

  // The lane clio.device.queue_wait_us records into (never null; the
  // standalone lane until the owning volume sets its own).
  void set_lane_metrics(const VolumeLaneMetrics* metrics) {
    lane_metrics_ = metrics;
  }

  // Calls waiting in the submission queue, for tests.
  size_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }

  // For metadata only (block size, capacity, QueryEnd, BlockState).
  WormDevice* device() { return device_; }

 private:
  struct Waiter;

  // The cached image of `block`, empty on a miss; either way one fetch
  // charged to `stats`.
  BlockImage Lookup(uint64_t block, OpStats* stats);
  // A miss's device pass [block, end), the demanded block cached and
  // returned, the rest admitted (FetchSequential).
  Result<BlockImage> ReadPass(uint64_t block, uint64_t end,
                              Counter* readahead_counter);

  // Runs `io` as the device's next call and returns its result.
  template <typename Io>
  auto Submit(const Io& io) -> decltype(io());
  // Submit's untyped core: runs `call` inline or from the queue.
  void Run(const std::function<void()>& call);
  // The I/O thread's loop.
  void Drain();

  WormDevice* device_;
  BlockCache* cache_;
  uint64_t cache_device_id_;
  const VolumeLaneMetrics* lane_metrics_;
  const bool one_at_a_time_;  // the device serves one call at a time

  mutable std::mutex mu_;
  std::condition_variable work_;  // wakes the I/O thread
  std::deque<Waiter*> pending_;   // FIFO; each waiter lives on its caller
  bool busy_ = false;             // a call is on the device
  bool stop_ = false;
  std::thread io_;  // started by the first call that queues
};

}  // namespace clio

#endif  // SRC_CLIO_CACHED_READER_H_
