#include "src/cache/block_cache.h"

#include <sys/mman.h>

#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CLIO_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CLIO_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CLIO_POISON(p, n) ((void)(p), (void)(n))
#define CLIO_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace clio {
namespace {

// With fewer than this many blocks of capacity the cache runs a single
// shard: striping a tiny cache would fragment it into zero-or-one-block
// stripes and break exact LRU where it is actually observable.
constexpr size_t kShardCount = 16;
constexpr size_t kMinBlocksPerShard = 16;

// Process-wide mirrors of the per-instance CacheStats, so the kStats op
// and BENCH_*.json see cache economics across every cache in the process.
// Counters are lock-free; shards increment them outside their stripe lock.
struct CacheCounters {
  Counter* hits = ObsRegistry().counter("clio.cache.hits");
  Counter* misses = ObsRegistry().counter("clio.cache.misses");
  Counter* insertions = ObsRegistry().counter("clio.cache.insertions");
  Counter* evictions = ObsRegistry().counter("clio.cache.evictions");
  Counter* double_inserts =
      ObsRegistry().counter("clio.cache.double_insert");
  Counter* frames_allocated =
      ObsRegistry().counter("clio.cache.frames_allocated");
  // Pool frames some image holds (zero-copy replies in flight, blocks a
  // reader is parsing), and evictions that had to pass over a held frame.
  Gauge* pinned = ObsRegistry().gauge("clio.cache.pinned_blocks");
  Counter* pin_skips = ObsRegistry().counter("clio.cache.pin_eviction_skips");
};

CacheCounters& Counters() {
  static CacheCounters* counters = new CacheCounters();
  return *counters;
}

struct KeyHash {
  size_t operator()(const BlockCache::Key& k) const {
    // Mix: device ids are small, block indexes dense.
    uint64_t h = k.device_id * 0x9E3779B97F4A7C15ULL + k.block_index;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

// Counts pool frames that gained their first image or lost their last.
void NoteHeld(int64_t delta) { Counters().pinned->Add(delta); }

size_t PageRound(size_t bytes) {
  const size_t page = 4096;
  return (bytes + page - 1) / page * page;
}

}  // namespace

// Everything a frame may need after its cache is gone: the mapping, the
// free list that takes frames back, and a reference count (one for the
// cache plus one per frame off the free list). Whoever drops the last
// reference deletes the pool, which unmaps the frames.
struct FramePool {
  // LRU links of a cached frame, kept in an array parallel to the frame
  // headers so a frame's node is found by its index.
  struct Node {
    BlockCache::Key key{};
    Node* prev = nullptr;
    Node* next = nullptr;
  };

  // One lock stripe: an independent LRU cache over its slice of the key
  // space. Stats are plain counters mutated under `mu`.
  struct Shard {
    mutable std::mutex mu;
    size_t capacity = 0;
    Node lru;  // sentinel: lru.next is the most recently used
    std::unordered_map<BlockCache::Key, Frame*, KeyHash> map;
    CacheStats stats;
  };

  FramePool(size_t capacity, uint32_t frame_size)
      : frame_count(capacity),
        frame_bytes(frame_size),
        shards(capacity >= kShardCount * kMinBlocksPerShard ? kShardCount
                                                            : 1) {
    // Distribute capacity over the stripes; the remainder goes to the
    // first stripes so the total still adds up to `capacity`.
    for (size_t i = 0; i < shards.size(); ++i) {
      shards[i].capacity = capacity / shards.size() +
                           (i < capacity % shards.size() ? 1 : 0);
      shards[i].lru.prev = shards[i].lru.next = &shards[i].lru;
    }
    if (capacity == 0) {
      return;
    }
    // [frame headers][LRU nodes] on their own pages, then the frames. The
    // kernel backs a page when a carve first touches it.
    const size_t headers =
        PageRound(capacity * (sizeof(Frame) + sizeof(Node)));
    mapping_bytes = headers + capacity * frame_size;
    void* base = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      throw std::bad_alloc();
    }
    mapping = static_cast<std::byte*>(base);
    frames = reinterpret_cast<Frame*>(mapping);
    nodes = reinterpret_cast<Node*>(frames + capacity);
    data = mapping + headers;
    CLIO_POISON(data, capacity * frame_size);
  }

  ~FramePool() {
    if (mapping != nullptr) {
      CLIO_UNPOISON(data, frame_count * frame_bytes);
      munmap(mapping, mapping_bytes);
    }
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  Shard& ShardFor(const BlockCache::Key& key) {
    // The map consumes the low hash bits; shard selection uses the high
    // ones so stripes do not correlate with bucket placement.
    return shards[(KeyHash{}(key) >> 57) & (shards.size() - 1)];
  }
  Node& NodeOf(const Frame* frame) { return nodes[frame - frames]; }
  Frame* FrameOf(Node* node) { return &frames[node - nodes]; }

  void Release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete this;
    }
  }

  // Frames come off the free list only in a fill, under a shard lock;
  // they go back from any thread. Lock order: shard, then free_mu.
  void PushFree(Frame* frame) {
    CLIO_POISON(frame->data, frame_bytes);
    std::lock_guard<std::mutex> lock(free_mu);
    frame->next_free = free;
    free = frame;
  }

  // A free frame, else the next never-used frame of the mapping, else
  // null. Each frame is carved once per cache.
  Frame* PopFree() {
    Frame* frame = nullptr;
    {
      std::lock_guard<std::mutex> lock(free_mu);
      if (free != nullptr) {
        frame = std::exchange(free, free->next_free);
      } else if (carved.load(std::memory_order_relaxed) < frame_count) {
        const size_t i = carved.load(std::memory_order_relaxed);
        frame = new (&frames[i]) Frame;
        new (&nodes[i]) Node;
        frame->size = frame_bytes;
        frame->data = data + i * frame_bytes;
        frame->pool = this;
        carved.store(i + 1, std::memory_order_relaxed);
      } else {
        return nullptr;
      }
    }
    CLIO_UNPOISON(frame->data, frame_bytes);
    refs.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }

  // Hands back a frame whose last reference is gone.
  void Recycle(Frame* frame) {
    PushFree(frame);
    Release();
  }

  // -- Under the shard's lock. --

  static void Unlink(Node& node) {
    node.prev->next = node.next;
    node.next->prev = node.prev;
  }
  static void LinkFront(Shard& shard, Node& node) {
    node.prev = &shard.lru;
    node.next = shard.lru.next;
    shard.lru.next->prev = &node;
    shard.lru.next = &node;
  }

  // A new image of `frame`, cached or taken for a fill.
  static BlockImage Hold(Frame* frame) {
    if (frame->state.fetch_add(Frame::kImage, std::memory_order_relaxed) <
        Frame::kImage) {
      NoteHeld(1);
    }
    return BlockImage(frame);
  }

  // A frame for a fill in `shard`: a free one, a fresh carve, or the
  // coldest cached frame no image holds (evicted). Null when the shard
  // cannot cache (capacity 0) or every frame at the LRU tail is held. The
  // caller sets the frame's state.
  Frame* Take(Shard& shard) {
    if (shard.capacity == 0) {
      return nullptr;
    }
    Frame* frame = shard.map.size() < shard.capacity ? PopFree() : nullptr;
    if (frame == nullptr) {
      frame = Evict(shard);
    }
    if (frame == nullptr) {
      ++shard.stats.frames_allocated;
      Counters().frames_allocated->Increment();
    }
    return frame;
  }

  // Removes the coldest cached frame no image holds and returns it (state
  // still kCached), or null when every cached frame is held.
  Frame* Evict(Shard& shard) {
    for (Node* node = shard.lru.prev; node != &shard.lru; node = node->prev) {
      Frame* frame = FrameOf(node);
      // Only a lookup under this lock adds a hold to an unheld cached
      // frame, so kCached seen here stays true; the acquire pairs with the
      // last holder's release, ordering its reads before our overwrite.
      if (frame->state.load(std::memory_order_acquire) == Frame::kCached) {
        Unlink(*node);
        shard.map.erase(node->key);
        ++shard.stats.evictions;
        Counters().evictions->Increment();
        return frame;
      }
      Counters().pin_skips->Increment();
    }
    return nullptr;
  }

  // Copies `bytes` into a frame cached under `key`, unless the key is
  // cached already; returns the cached frame, or null when none is free.
  Frame* Insert(Shard& shard, const BlockCache::Key& key,
                std::span<const std::byte> bytes) {
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Write-once media: the same key can only ever hold the same bytes, so
      // keep the existing frame (holders of old and new images must agree).
      // A mismatch means a caller cached garbage.
      Frame* cached = it->second;
      assert(std::memcmp(cached->data, bytes.data(), bytes.size()) == 0 &&
             "double insert with different bytes for a write-once block");
      ++shard.stats.double_inserts;
      Counters().double_inserts->Increment();
      Node& node = NodeOf(cached);
      Unlink(node);
      LinkFront(shard, node);
      return cached;
    }
    Frame* frame = Take(shard);
    if (frame == nullptr) {
      return nullptr;
    }
    std::memcpy(frame->data, bytes.data(), bytes.size());
    frame->state.store(Frame::kCached, std::memory_order_relaxed);
    Link(shard, key, frame);
    return frame;
  }

  // Enters `frame` (taken from `shard`, filled, its kCached bit set) as
  // `key`'s most recently used block.
  void Link(Shard& shard, const BlockCache::Key& key, Frame* frame) {
    Node& node = NodeOf(frame);
    node.key = key;
    LinkFront(shard, node);
    shard.map.emplace(key, frame);
    ++shard.stats.insertions;
    Counters().insertions->Increment();
  }

  // Drops the cache's reference on `frame`; an unheld frame goes straight
  // back to the free list, a held one when its last image is dropped.
  void Uncache(Shard& shard, Frame* frame) {
    Node& node = NodeOf(frame);
    Unlink(node);
    shard.map.erase(node.key);
    if (frame->state.fetch_sub(Frame::kCached, std::memory_order_acq_rel) ==
        Frame::kCached) {
      Free(frame);
    }
  }

  // Puts a frame nothing references back on the free list.
  void Free(Frame* frame) {
    frame->state.store(0, std::memory_order_relaxed);
    PushFree(frame);
    refs.fetch_sub(1, std::memory_order_relaxed);  // the cache holds one
  }

  const size_t frame_count;
  const uint32_t frame_bytes;
  std::vector<Shard> shards;
  std::byte* mapping = nullptr;
  size_t mapping_bytes = 0;
  Frame* frames = nullptr;
  Node* nodes = nullptr;
  std::byte* data = nullptr;
  std::mutex free_mu;
  Frame* free = nullptr;  // guarded by free_mu
  std::atomic<size_t> carved{0};
  std::atomic<size_t> refs{1};
};

BlockImage BlockImage::Copy(std::span<const std::byte> bytes) {
  BlockImage image = Standalone(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(image.frame_->data, bytes.data(), bytes.size());
  }
  return image;
}

BlockImage BlockImage::Standalone(size_t size) {
  void* raw = ::operator new(sizeof(Frame) + size);
  Frame* frame = new (raw) Frame;
  frame->size = static_cast<uint32_t>(size);
  frame->data = reinterpret_cast<std::byte*>(frame + 1);
  frame->state.store(Frame::kImage, std::memory_order_relaxed);
  return BlockImage(frame);
}

void BlockImage::Drop(Frame* frame) {
  // Read before letting go: once this image is dropped a cached frame may
  // be evicted, and its pool deleted, by other threads.
  FramePool* pool = frame->pool;
  const uint32_t old =
      frame->state.fetch_sub(Frame::kImage, std::memory_order_acq_rel);
  if (old >= 2 * Frame::kImage) {
    return;  // other images remain
  }
  if (pool == nullptr) {
    frame->~Frame();
    ::operator delete(frame);
    return;
  }
  NoteHeld(-1);
  if (old == Frame::kImage) {  // no cache entry either: back to the pool
    pool->Recycle(frame);
  }
}

BlockCache::BlockCache(size_t capacity_blocks, uint32_t frame_bytes)
    : capacity_blocks_(capacity_blocks),
      frame_bytes_(frame_bytes),
      pool_(new FramePool(capacity_blocks, frame_bytes)) {}

BlockCache::~BlockCache() {
  Clear();
  pool_->Release();
}

BlockImage BlockCache::Lookup(const Key& key) {
  FramePool::Shard& shard = pool_->ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.stats.misses;
    Counters().misses->Increment();
    return BlockImage();
  }
  ++shard.stats.hits;
  Counters().hits->Increment();
  FramePool::Node& node = pool_->NodeOf(it->second);
  FramePool::Unlink(node);
  FramePool::LinkFront(shard, node);
  return pool_->Hold(it->second);
}

BlockImage BlockCache::Insert(const Key& key, std::span<const std::byte> bytes) {
  if (bytes.size() == frame_bytes_) {
    FramePool::Shard& shard = pool_->ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    Frame* frame = pool_->Insert(shard, key, bytes);
    if (frame != nullptr) {
      return pool_->Hold(frame);
    }
  }
  return BlockImage::Copy(bytes);  // not cacheable: hand the block back
}

void BlockCache::Admit(const Key& key, std::span<const std::byte> bytes) {
  if (bytes.size() == frame_bytes_) {
    FramePool::Shard& shard = pool_->ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    pool_->Insert(shard, key, bytes);
  }
}

BlockImage BlockCache::TakeFrame(const Key& key, uint32_t size) {
  if (size == frame_bytes_) {
    FramePool::Shard& shard = pool_->ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (Frame* frame = pool_->Take(shard)) {
      frame->state.store(0, std::memory_order_relaxed);
      return pool_->Hold(frame);
    }
  }
  return BlockImage::Standalone(size);
}

BlockImage BlockCache::Publish(const Key& key, BlockImage frame) {
  if (frame.frame_->pool != pool_) {
    return frame;  // a standalone frame is handed back uncached
  }
  FramePool::Shard& shard = pool_->ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Another fill cached the block meanwhile: keep its frame and take
    // ours back (`frame` is its only holder).
    Frame* ours = frame.release();
    assert(std::memcmp(it->second->data, ours->data, frame_bytes_) == 0 &&
           "double insert with different bytes for a write-once block");
    ++shard.stats.double_inserts;
    Counters().double_inserts->Increment();
    NoteHeld(-1);
    pool_->Free(ours);
    return pool_->Hold(it->second);
  }
  if (shard.map.size() >= shard.capacity) {
    // Concurrent fills overfilled the shard: make room, or leave this
    // block uncached when every other frame is held.
    Frame* victim = pool_->Evict(shard);
    if (victim == nullptr) {
      return frame;
    }
    pool_->Free(victim);
  }
  frame.frame_->state.fetch_add(Frame::kCached, std::memory_order_relaxed);
  pool_->Link(shard, key, frame.frame_);
  return frame;
}

void BlockCache::Replace(const Key& key, std::span<const std::byte> bytes) {
  if (bytes.size() != frame_bytes_) {
    return;
  }
  FramePool::Shard& shard = pool_->ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    pool_->Uncache(shard, it->second);
  }
  pool_->Insert(shard, key, bytes);
}

void BlockCache::Erase(const Key& key) {
  FramePool::Shard& shard = pool_->ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    pool_->Uncache(shard, it->second);
  }
}

void BlockCache::EraseDevice(uint64_t device_id) {
  for (FramePool::Shard& shard : pool_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (FramePool::Node* node = shard.lru.next; node != &shard.lru;) {
      FramePool::Node* next = node->next;
      if (node->key.device_id == device_id) {
        pool_->Uncache(shard, pool_->FrameOf(node));
      }
      node = next;
    }
  }
}

void BlockCache::Clear() {
  for (FramePool::Shard& shard : pool_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    while (shard.lru.next != &shard.lru) {
      pool_->Uncache(shard, pool_->FrameOf(shard.lru.next));
    }
  }
}

size_t BlockCache::size() const {
  size_t total = 0;
  for (const FramePool::Shard& shard : pool_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

size_t BlockCache::frames_carved() const {
  return pool_->carved.load(std::memory_order_relaxed);
}

CacheStats BlockCache::stats() const {
  CacheStats total;
  for (const FramePool::Shard& shard : pool_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.insertions += shard.stats.insertions;
    total.evictions += shard.stats.evictions;
    total.double_inserts += shard.stats.double_inserts;
    total.frames_allocated += shard.stats.frames_allocated;
  }
  return total;
}

void BlockCache::ResetStats() {
  for (FramePool::Shard& shard : pool_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.Reset();
  }
}

}  // namespace clio
