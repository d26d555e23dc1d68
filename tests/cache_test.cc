// Block cache (buffer pool) behaviour: LRU order, eviction, per-device
// erasure, stats, the zero-capacity "no caching" mode the analytical
// benches use, and the frame pool: a held image pins its frame, released
// frames are recycled, and the mapping outlives the cache while held.
#include "src/cache/block_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace clio {
namespace {

constexpr uint32_t kFrame = 16;

Bytes Payload(uint8_t tag) { return Bytes(kFrame, std::byte{tag}); }

uint8_t Tag(const BlockImage& image) {
  return static_cast<uint8_t>(image.bytes()[0]);
}

// Pool frames some image holds, over every cache in the process (each
// test drops its images before it ends).
int64_t HeldFrames() {
  return ObsRegistry().gauge("clio.cache.pinned_blocks")->value();
}

bool AllBytesAre(const BlockImage& image, uint8_t tag) {
  return std::all_of(image.bytes().begin(), image.bytes().end(),
                     [tag](std::byte b) { return b == std::byte{tag}; });
}

TEST(Cache, HitAfterInsert) {
  BlockCache cache(4, kFrame);
  cache.Insert({1, 10}, Payload(1));
  BlockImage hit = cache.Lookup({1, 10});
  ASSERT_TRUE(hit);
  EXPECT_EQ(Tag(hit), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, MissOnAbsentKey) {
  BlockCache cache(4, kFrame);
  EXPECT_FALSE(cache.Lookup({1, 10}));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder) {
  BlockCache cache(2, kFrame);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  // Touch 1 so 2 becomes LRU.
  ASSERT_TRUE(cache.Lookup({1, 1}));
  cache.Insert({1, 3}, Payload(3));
  EXPECT_TRUE(cache.Lookup({1, 1}));
  EXPECT_FALSE(cache.Lookup({1, 2}));
  EXPECT_TRUE(cache.Lookup({1, 3}));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, ReinsertKeepsOriginalEntry) {
  // Blocks are write-once: a double insert keeps the existing frame (and
  // both the old and the returned image refer to it).
  BlockCache cache(4, kFrame);
  BlockImage first = cache.Insert({1, 1}, Payload(1));
  BlockImage second = cache.Insert({1, 1}, Payload(1));
  EXPECT_EQ(first.data(), second.data());
  BlockImage hit = cache.Lookup({1, 1});
  ASSERT_TRUE(hit);
  EXPECT_EQ(Tag(hit), 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().double_inserts, 1u);
}

TEST(Cache, DoubleInsertDoesNotEvict) {
  BlockCache cache(2, kFrame);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  cache.Insert({1, 1}, Payload(1));  // re-insert while full
  EXPECT_TRUE(cache.Lookup({1, 1}));
  EXPECT_TRUE(cache.Lookup({1, 2}));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, EraseAndEraseDevice) {
  BlockCache cache(8, kFrame);
  cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  cache.Insert({2, 1}, Payload(3));
  cache.Erase({1, 1});
  EXPECT_FALSE(cache.Lookup({1, 1}));
  EXPECT_TRUE(cache.Lookup({1, 2}));
  cache.EraseDevice(1);
  EXPECT_FALSE(cache.Lookup({1, 2}));
  EXPECT_TRUE(cache.Lookup({2, 1}));
}

TEST(Cache, ZeroCapacityCachesNothing) {
  BlockCache cache(0, kFrame);
  BlockImage returned = cache.Insert({1, 1}, Payload(1));
  ASSERT_TRUE(returned);  // the caller still gets the block, standalone
  EXPECT_TRUE(AllBytesAre(returned, 1));
  EXPECT_FALSE(cache.Lookup({1, 1}));
  cache.Replace({1, 1}, Payload(2));
  EXPECT_FALSE(cache.Lookup({1, 1}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.frames_carved(), 0u);
  EXPECT_EQ(HeldFrames(), 0);
}

TEST(Cache, BlockOfAnotherSizeIsHandedBackUncached) {
  BlockCache cache(4, kFrame);
  BlockImage image = cache.Insert({1, 1}, Bytes(2 * kFrame, std::byte{9}));
  EXPECT_EQ(image.size(), 2 * kFrame);
  EXPECT_TRUE(AllBytesAre(image, 9));
  EXPECT_FALSE(cache.Lookup({1, 1}));
  EXPECT_EQ(cache.frames_carved(), 0u);
}

TEST(Cache, HitRatioComputes) {
  BlockCache cache(4, kFrame);
  cache.Insert({1, 1}, Payload(1));
  (void)cache.Lookup({1, 1});
  (void)cache.Lookup({1, 2});
  EXPECT_DOUBLE_EQ(cache.stats().HitRatio(), 0.5);
}

TEST(Cache, FillReadsIntoAFrameAndCachesOnlySuccess) {
  BlockCache cache(4, kFrame);
  auto failed = cache.Fill({1, 1}, kFrame, [](std::span<std::byte>) {
    return Corrupt("device says no");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(cache.Lookup({1, 1}));
  EXPECT_EQ(HeldFrames(), 0);  // the failed fill's frame went back

  ASSERT_OK_AND_ASSIGN(BlockImage filled,
                       cache.Fill({1, 1}, kFrame, [](std::span<std::byte> f) {
                         std::fill(f.begin(), f.end(), std::byte{5});
                         return Status::Ok();
                       }));
  EXPECT_TRUE(AllBytesAre(filled, 5));
  BlockImage hit = cache.Lookup({1, 1});
  EXPECT_EQ(hit.data(), filled.data());
  EXPECT_EQ(cache.frames_carved(), 1u);  // the failed fill's frame, reused
}

TEST(Cache, ConcurrentReadersShareTheCache) {
  // Striped-lock smoke test: many threads insert and look up overlapping
  // keys; every lookup must yield either a miss or the write-once bytes.
  BlockCache cache(512, kFrame);
  constexpr int kThreads = 8;
  constexpr uint64_t kBlocks = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache] {
      for (int lap = 0; lap < 4; ++lap) {
        for (uint64_t block = 0; block < kBlocks; ++block) {
          BlockImage hit = cache.Lookup({1, block});
          if (!hit) {
            hit = cache.Insert({1, block},
                               Payload(static_cast<uint8_t>(block)));
          }
          ASSERT_EQ(Tag(hit), static_cast<uint8_t>(block));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * 4 * kBlocks);
}

TEST(Cache, ManyDevicesDoNotCollide) {
  BlockCache cache(1024, 8);
  for (uint64_t device = 0; device < 8; ++device) {
    for (uint64_t block = 0; block < 32; ++block) {
      cache.Insert({device, block},
                   Bytes(8, std::byte{static_cast<uint8_t>(device * 32 +
                                                           block)}));
    }
  }
  for (uint64_t device = 0; device < 8; ++device) {
    for (uint64_t block = 0; block < 32; ++block) {
      BlockImage hit = cache.Lookup({device, block});
      ASSERT_TRUE(hit);
      EXPECT_EQ(Tag(hit), static_cast<uint8_t>(device * 32 + block));
    }
  }
}

// ---------------------------------------------------------------------------
// Frames: a held image is its own residency pin (DESIGN.md §12, §16).

TEST(CacheFrames, HeldImageSurvivesEvictionPressure) {
  BlockCache cache(2, kFrame);
  BlockImage held = cache.Insert({1, 1}, Payload(1));
  cache.Insert({1, 2}, Payload(2));
  EXPECT_EQ(HeldFrames(), 1);
  // {1,1} is the LRU victim, but the held image makes the evictor pass
  // over it and take {1,2} instead.
  cache.Insert({1, 3}, Payload(3));
  EXPECT_TRUE(cache.Lookup({1, 1}));
  EXPECT_FALSE(cache.Lookup({1, 2}));
  EXPECT_TRUE(cache.Lookup({1, 3}));
}

TEST(CacheFrames, DroppedImageMakesFrameEvictableAgain) {
  BlockCache cache(2, kFrame);
  {
    BlockImage held = cache.Insert({1, 1}, Payload(1));
    cache.Insert({1, 2}, Payload(2));
  }  // image dropped
  EXPECT_EQ(HeldFrames(), 0);
  cache.Lookup({1, 2});  // make {1,1} the coldest entry again
  cache.Insert({1, 3}, Payload(3));
  EXPECT_FALSE(cache.Lookup({1, 1}));  // evicted normally
}

TEST(CacheFrames, EveryImageOfAFrameHoldsIt) {
  BlockCache cache(2, kFrame);
  BlockImage first = cache.Insert({1, 1}, Payload(1));
  BlockImage second = cache.Lookup({1, 1});
  cache.Insert({1, 2}, Payload(2));
  EXPECT_EQ(HeldFrames(), 1);  // one frame, two images
  first = BlockImage();
  // Still held by the second image.
  cache.Insert({1, 3}, Payload(3));
  EXPECT_TRUE(cache.Lookup({1, 1}));
  second = BlockImage();
  EXPECT_EQ(HeldFrames(), 0);
}

TEST(CacheFrames, AllHeldHandsBackAStandaloneFrame) {
  BlockCache cache(2, kFrame);
  BlockImage a = cache.Insert({1, 1}, Payload(1));
  BlockImage b = cache.Insert({1, 2}, Payload(2));
  // No unheld victim exists: the block comes back in a standalone frame,
  // uncached, rather than evicting held bytes or failing.
  BlockImage c = cache.Insert({1, 3}, Payload(3));
  EXPECT_TRUE(AllBytesAre(c, 3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().frames_allocated, 1u);
  EXPECT_TRUE(cache.Lookup({1, 1}));
  EXPECT_TRUE(cache.Lookup({1, 2}));
  EXPECT_FALSE(cache.Lookup({1, 3}));
  EXPECT_EQ(cache.frames_carved(), 2u);
}

TEST(CacheFrames, MissHoldsNothing) {
  BlockCache cache(2, kFrame);
  BlockImage miss = cache.Lookup({9, 9});
  EXPECT_FALSE(miss);
  EXPECT_TRUE(miss.bytes().empty());
  EXPECT_EQ(HeldFrames(), 0);
}

TEST(CacheFrames, EraseWhileHeldKeepsBytesAndRecyclesOnRelease) {
  BlockCache cache(2, kFrame);
  BlockImage image = cache.Insert({1, 1}, Payload(7));
  // Erase drops the entry; the image keeps the frame and its bytes.
  cache.Erase({1, 1});
  EXPECT_FALSE(cache.Lookup({1, 1}));
  EXPECT_TRUE(AllBytesAre(image, 7));
  EXPECT_EQ(HeldFrames(), 1);
  cache.Insert({1, 2}, Payload(2));  // carves the second frame
  image = BlockImage();              // the erased frame rejoins the pool
  EXPECT_EQ(HeldFrames(), 0);
  cache.Insert({1, 3}, Payload(3));
  EXPECT_EQ(cache.frames_carved(), 2u);  // reused, not carved
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheFrames, HeldImageKeepsItsBytesThroughChurn) {
  // Ten times the capacity in distinct blocks streams through a striped
  // cache while one image is held: its frame must never be reused.
  constexpr size_t kCapacity = 256;
  BlockCache cache(kCapacity, kFrame);
  BlockImage held = cache.Insert({1, 0}, Payload(0xAB));
  for (uint64_t block = 1; block <= 10 * kCapacity; ++block) {
    cache.Insert({1, block}, Payload(static_cast<uint8_t>(block)));
  }
  EXPECT_TRUE(AllBytesAre(held, 0xAB));
  BlockImage again = cache.Lookup({1, 0});
  ASSERT_TRUE(again);  // a held frame stays cached
  EXPECT_EQ(again.data(), held.data());
  EXPECT_EQ(cache.stats().frames_allocated, 0u);
}

TEST(CacheFrames, SteadyStateFillsCreateNoNewFrames) {
  constexpr size_t kCapacity = 512;
  BlockCache cache(kCapacity, kFrame);
  // Warm-up: keys land on the stripes unevenly, so filling every stripe
  // takes more than `kCapacity` distinct blocks.
  for (uint64_t block = 0; block < 4 * kCapacity; ++block) {
    cache.Admit({1, block}, Payload(static_cast<uint8_t>(block)));
  }
  const size_t carved = cache.frames_carved();
  EXPECT_EQ(carved, kCapacity);
  for (uint64_t block = 4 * kCapacity; block < 14 * kCapacity; ++block) {
    if (block % 2 == 0) {
      cache.Admit({1, block}, Payload(static_cast<uint8_t>(block)));
    } else {
      ASSERT_OK_AND_ASSIGN(
          BlockImage filled,
          cache.Fill({1, block}, kFrame, [block](std::span<std::byte> f) {
            std::fill(f.begin(), f.end(), std::byte{uint8_t(block)});
            return Status::Ok();
          }));
      EXPECT_TRUE(AllBytesAre(filled, static_cast<uint8_t>(block)));
    }
  }
  EXPECT_EQ(cache.frames_carved(), carved);
  EXPECT_EQ(cache.stats().frames_allocated, 0u);
  EXPECT_LE(cache.size(), kCapacity);
  EXPECT_EQ(HeldFrames(), 0);
}

TEST(CacheFrames, ReplaceGivesANewFrameAndHoldersKeepTheSnapshot) {
  BlockCache cache(4, kFrame);
  cache.Insert({1, 1}, Payload(1));
  BlockImage before = cache.Lookup({1, 1});
  cache.Replace({1, 1}, Payload(2));
  BlockImage after = cache.Lookup({1, 1});
  ASSERT_TRUE(after);
  EXPECT_NE(after.data(), before.data());
  EXPECT_TRUE(AllBytesAre(before, 1));  // the snapshot is untouched
  EXPECT_TRUE(AllBytesAre(after, 2));
  EXPECT_EQ(cache.size(), 1u);
  // With no image of it held, the old frame is simply recycled.
  before = BlockImage();
  after = BlockImage();
  cache.Replace({1, 1}, Payload(3));
  EXPECT_TRUE(AllBytesAre(cache.Lookup({1, 1}), 3));
  EXPECT_EQ(cache.frames_carved(), 2u);
}

TEST(CacheFrames, ImagesOutliveTheirCache) {
  auto cache = std::make_unique<BlockCache>(4, kFrame);
  BlockImage held = cache->Insert({1, 1}, Payload(4));
  BlockImage copy = held;
  cache.reset();  // the mapping stays until the last image is dropped
  EXPECT_TRUE(AllBytesAre(held, 4));
  held = BlockImage();
  EXPECT_TRUE(AllBytesAre(copy, 4));
}

TEST(CacheFrames, FourThreadChurnWithHeldImages) {
  // Four threads read a working set three times the cache through Fill
  // and Lookup while each keeps its last few images alive. Every image
  // must carry its block's bytes however its frame was recycled.
  constexpr size_t kCapacity = 256;
  constexpr uint64_t kBlocks = 3 * kCapacity;
  BlockCache cache(kCapacity, kFrame);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &bad, t] {
      std::deque<std::pair<uint64_t, BlockImage>> kept;
      uint64_t x = 0x9E3779B97F4A7C15ULL * (t + 1);
      for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t block = x % kBlocks;
        const uint8_t tag = static_cast<uint8_t>(block * 7 + 1);
        BlockImage image = cache.Lookup({1, block});
        if (!image) {
          auto filled =
              cache.Fill({1, block}, kFrame, [tag](std::span<std::byte> f) {
                std::fill(f.begin(), f.end(), std::byte{tag});
                return Status::Ok();
              });
          image = std::move(filled).value();
        }
        if (!AllBytesAre(image, tag)) {
          bad.fetch_add(1);
        }
        kept.emplace_back(block, std::move(image));
        if (kept.size() > 4) {
          const auto& [old_block, old_image] = kept.front();
          if (!AllBytesAre(old_image, static_cast<uint8_t>(old_block * 7 + 1))) {
            bad.fetch_add(1);
          }
          kept.pop_front();
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(HeldFrames(), 0);
  EXPECT_LE(cache.frames_carved(), kCapacity);
  EXPECT_LE(cache.size(), kCapacity);
}

}  // namespace
}  // namespace clio
