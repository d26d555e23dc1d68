// BlockImage: a shared, read-only handle on one block image held in a
// frame of the buffer pool (src/cache/block_cache.h).
//
// A frame is one block-sized buffer. Cache frames are carved from one
// mapping per BlockCache and recycled through it; a frame no cache holds
// (the staged tail, a zero-capacity cache, a block of another size, a
// test) is a standalone heap frame. Either way a BlockImage is a counted
// reference on the frame, and holding one is the frame's residency pin:
// the cache's evictor skips a frame while any image of it is alive, and
// the frame returns to its pool when its last image is dropped. Images are
// immutable once handed out (log data is write-once), so any number of
// threads may read one concurrently.
#ifndef SRC_CACHE_BLOCK_IMAGE_H_
#define SRC_CACHE_BLOCK_IMAGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace clio {

class BlockCache;
struct FramePool;  // a cache's frames and LRU state (block_cache.cc)

// One frame's header. `state` packs the frame's references: bit 0 is set
// while a cache entry holds the frame; the bits above count live images.
// The frame is free when `state` is 0.
struct Frame {
  static constexpr uint32_t kCached = 1;
  static constexpr uint32_t kImage = 2;

  std::atomic<uint32_t> state{0};
  uint32_t size = 0;
  std::byte* data = nullptr;
  FramePool* pool = nullptr;  // null for a standalone frame
  Frame* next_free = nullptr;
};

class BlockImage {
 public:
  BlockImage() = default;

  // A standalone frame holding a copy of `bytes`.
  static BlockImage Copy(std::span<const std::byte> bytes);

  BlockImage(const BlockImage& other) : frame_(other.frame_) {
    if (frame_ != nullptr) {
      frame_->state.fetch_add(Frame::kImage, std::memory_order_relaxed);
    }
  }
  BlockImage(BlockImage&& other) noexcept
      : frame_(std::exchange(other.frame_, nullptr)) {}
  BlockImage& operator=(BlockImage other) noexcept {
    std::swap(frame_, other.frame_);
    return *this;
  }
  ~BlockImage() {
    if (frame_ != nullptr) {
      Drop(frame_);
    }
  }

  explicit operator bool() const { return frame_ != nullptr; }
  std::span<const std::byte> bytes() const {
    return frame_ == nullptr
               ? std::span<const std::byte>()
               : std::span<const std::byte>(frame_->data, frame_->size);
  }
  const std::byte* data() const { return bytes().data(); }
  size_t size() const { return bytes().size(); }

 private:
  friend class BlockCache;
  friend struct FramePool;

  // Adopts one image reference the caller already counted in `state`.
  explicit BlockImage(Frame* frame) : frame_(frame) {}
  // A new standalone frame of `size` bytes, uninitialized, held by the
  // returned image alone.
  static BlockImage Standalone(size_t size);

  std::span<std::byte> writable() const { return {frame_->data, frame_->size}; }
  Frame* release() { return std::exchange(frame_, nullptr); }

  // Drops one image reference; the last one hands the frame back to its
  // pool (or frees a standalone frame).
  static void Drop(Frame* frame);

  Frame* frame_ = nullptr;
};

}  // namespace clio

#endif  // SRC_CACHE_BLOCK_IMAGE_H_
