#include "src/clio/cached_reader.h"

#include <algorithm>
#include <memory>

#include "src/obs/metrics.h"

namespace clio {
namespace {

// The calling thread's read-pass buffer, grown on demand and never
// zero-filled: every pass overwrites what it reads.
std::span<std::byte> PassBuffer(size_t bytes) {
  thread_local std::unique_ptr<std::byte[]> buffer;
  thread_local size_t capacity = 0;
  if (capacity < bytes) {
    buffer = std::make_unique_for_overwrite<std::byte[]>(bytes);
    capacity = bytes;
  }
  return {buffer.get(), bytes};
}

}  // namespace

Result<BlockImage> CachedBlockReader::Fetch(uint64_t block, OpStats* stats) {
  if (stats != nullptr) {
    ++stats->blocks_read;
  }
  const BlockCache::Key key{cache_device_id_, block};
  if (BlockImage hit = cache_->Lookup(key)) {
    if (stats != nullptr) {
      ++stats->cache_hits;
    }
    return hit;
  }
  if (stats != nullptr) {
    ++stats->device_reads;
  }
  return cache_->Fill(key, device_->block_size(),
                      [&](std::span<std::byte> frame) {
                        return device_->ReadBlock(block, frame);
                      });
}

Result<BlockImage> CachedBlockReader::FetchSequential(
    uint64_t block, uint64_t limit, uint32_t readahead, OpStats* stats,
    Counter* readahead_counter) {
  if (readahead == 0 || limit <= block + 1) {
    return Fetch(block, stats);
  }
  if (stats != nullptr) {
    ++stats->blocks_read;
  }
  if (BlockImage hit = cache_->Lookup({cache_device_id_, block})) {
    if (stats != nullptr) {
      ++stats->cache_hits;
    }
    return hit;
  }
  if (stats != nullptr) {
    ++stats->device_reads;
  }
  const uint32_t block_bytes = device_->block_size();
  const uint64_t count =
      std::min<uint64_t>(static_cast<uint64_t>(readahead) + 1, limit - block);
  std::span<std::byte> run = PassBuffer(count * block_bytes);
  auto got = device_->ReadBlocks(block, count, run);
  if (!got.ok()) {
    return got.status();  // the demanded block itself failed to read
  }
  static Counter* readahead_blocks =
      ObsRegistry().counter("clio.cache.readahead_blocks");
  if (readahead_counter == nullptr) {
    readahead_counter = readahead_blocks;
  }
  BlockImage demanded =
      cache_->Insert({cache_device_id_, block}, run.first(block_bytes));
  for (uint64_t i = 1; i < got.value(); ++i) {
    cache_->Admit({cache_device_id_, block + i},
                  run.subspan(i * block_bytes, block_bytes));
    readahead_counter->Increment();
  }
  return demanded;
}

Result<std::span<const std::byte>> CachedBlockReader::ReadRun(
    uint64_t first, uint64_t count, uint64_t cache_below) {
  const uint32_t block_bytes = device_->block_size();
  std::span<std::byte> run = PassBuffer(count * block_bytes);
  uint64_t got = 1;
  if (count == 1) {
    CLIO_RETURN_IF_ERROR(device_->ReadBlock(first, run));
  } else {
    CLIO_ASSIGN_OR_RETURN(got, device_->ReadBlocks(first, count, run));
  }
  for (uint64_t b = std::max<uint64_t>(first, 1);
       b < std::min(first + got, cache_below); ++b) {
    cache_->Admit({cache_device_id_, b},
                  run.subspan((b - first) * block_bytes, block_bytes));
  }
  return std::span<const std::byte>(run.first(got * block_bytes));
}

void CachedBlockReader::Put(uint64_t block, std::span<const std::byte> image) {
  cache_->Admit({cache_device_id_, block}, image);
}

void CachedBlockReader::Evict(uint64_t block) {
  cache_->Erase({cache_device_id_, block});
}

}  // namespace clio
