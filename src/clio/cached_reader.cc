#include "src/clio/cached_reader.h"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "src/clio/volume_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// Unmaps a read-pass buffer of `bytes`.
struct Unmap {
  size_t bytes = 0;
  void operator()(std::byte* data) const { munmap(data, bytes); }
};
// A read-pass buffer, never zero-filled: every pass overwrites what it
// reads. It is mapped from the kernel, not taken from malloc: freeing a
// large malloc block raises glibc's mmap threshold, and the heap then
// keeps later allocations below it, which cost several times the buffers'
// own pages in RSS (EXPERIMENTS.md §3.3).
using PassBytes = std::unique_ptr<std::byte[], Unmap>;

// The pass buffers of threads that ended, for the threads to come: a
// restart's helper thread lives for one restart, and a fresh buffer
// faults in a page per block its first passes read. Never destroyed, as
// threads may end after static destructors ran.
struct SparePassBuffers {
  static constexpr size_t kMax = 4;
  std::mutex mu;
  std::vector<PassBytes> spare;
};
SparePassBuffers& Spares() {
  static auto* spares = new SparePassBuffers;
  return *spares;
}

// The calling thread's read-pass buffer, grown on demand: a spare one
// when its thread first reads, handed back when the thread ends.
std::span<std::byte> PassBuffer(size_t bytes) {
  struct Lease {
    PassBytes bytes;
    Lease() {
      std::lock_guard<std::mutex> lock(Spares().mu);
      if (!Spares().spare.empty()) {
        bytes = std::move(Spares().spare.back());
        Spares().spare.pop_back();
      }
    }
    ~Lease() {
      std::lock_guard<std::mutex> lock(Spares().mu);
      if (bytes != nullptr && Spares().spare.size() < SparePassBuffers::kMax) {
        Spares().spare.push_back(std::move(bytes));
      }
    }
  };
  thread_local Lease buffer;
  if (buffer.bytes.get_deleter().bytes < bytes) {
    void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mapped == MAP_FAILED) {
      throw std::bad_alloc();
    }
    buffer.bytes = PassBytes(static_cast<std::byte*>(mapped), Unmap{bytes});
  }
  return {buffer.bytes.get(), bytes};
}

}  // namespace

// A queued call, on its caller's stack until the I/O thread marks it done.
struct CachedBlockReader::Waiter {
  const std::function<void()>* call;
  uint64_t trace_id;
  uint64_t submitted_us;
  Histogram* wait_us;
  bool done = false;
  std::condition_variable woken{};
};

CachedBlockReader::CachedBlockReader(WormDevice* device, BlockCache* cache,
                                     uint64_t cache_device_id)
    : device_(device),
      cache_(cache),
      cache_device_id_(cache_device_id),
      lane_metrics_(VolumeLaneMetrics::Standalone()),
      one_at_a_time_(device->serves_one_call_at_a_time()) {}

CachedBlockReader::~CachedBlockReader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_.notify_one();
  if (io_.joinable()) {
    io_.join();
  }
}

template <typename Io>
auto CachedBlockReader::Submit(const Io& io) -> decltype(io()) {
  std::optional<decltype(io())> result;
  Run([&] { result.emplace(io()); });
  return *std::move(result);
}

void CachedBlockReader::Run(const std::function<void()>& call) {
  Histogram* wait_us = lane_metrics_->queue_wait_us;
  if (!one_at_a_time_) {  // calls overlap: each caller goes itself
    wait_us->Record(0);
    call();
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!busy_ && pending_.empty()) {
    busy_ = true;
    lock.unlock();
    wait_us->Record(0);
    call();
    lock.lock();
    busy_ = false;
    if (!pending_.empty()) {
      work_.notify_one();
    }
    return;
  }
  Waiter waiter{&call, CurrentTraceId(), TraceNowUs(), wait_us};
  pending_.push_back(&waiter);
  if (!io_.joinable()) {
    io_ = std::thread([this] { Drain(); });
  }
  waiter.woken.wait(lock, [&] { return waiter.done; });
}

void CachedBlockReader::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_.wait(lock, [&] { return stop_ || (!busy_ && !pending_.empty()); });
    if (stop_) {
      return;
    }
    Waiter* waiter = pending_.front();
    pending_.pop_front();
    busy_ = true;
    lock.unlock();
    waiter->wait_us->Record(TraceNowUs() - waiter->submitted_us);
    {
      ScopedTraceContext trace(waiter->trace_id);
      (*waiter->call)();
    }
    lock.lock();
    busy_ = false;
    waiter->done = true;
    waiter->woken.notify_one();
  }
}

BlockImage CachedBlockReader::Lookup(uint64_t block, OpStats* stats) {
  BlockImage hit = cache_->Lookup({cache_device_id_, block});
  if (stats != nullptr) {
    ++stats->blocks_read;
    ++(hit ? stats->cache_hits : stats->device_reads);
  }
  return hit;
}

Result<BlockImage> CachedBlockReader::ReadPass(uint64_t block, uint64_t end,
                                               Counter* readahead_counter) {
  const BlockCache::Key key{cache_device_id_, block};
  const uint32_t block_bytes = device_->block_size();
  if (end <= block + 1) {
    return cache_->Fill(key, block_bytes, [&](std::span<std::byte> frame) {
      return Submit([&] { return device_->ReadBlock(block, frame); });
    });
  }
  // The demanded block itself must read; the pass may stop short after it.
  CLIO_ASSIGN_OR_RETURN(
      std::span<const std::byte> run,
      ReadRun(block, end - block, /*cache_below=*/0));
  static Counter* readahead_blocks =
      ObsRegistry().counter("clio.cache.readahead_blocks");
  if (readahead_counter == nullptr) {
    readahead_counter = readahead_blocks;
  }
  BlockImage demanded = cache_->Insert(key, run.first(block_bytes));
  for (uint64_t i = 1; i < run.size() / block_bytes; ++i) {
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
    CLIO_RETURN_IF_ERROR(
        Submit([&] { return device_->ReadBlock(first, run); }));
  } else {
    CLIO_ASSIGN_OR_RETURN(
        got, Submit([&] { return device_->ReadBlocks(first, count, run); }));
  }
  for (uint64_t b = std::max<uint64_t>(first, 1);
       b < std::min(first + got, cache_below); ++b) {
    cache_->Admit({cache_device_id_, b},
                  run.subspan((b - first) * block_bytes, block_bytes));
  }
  return std::span<const std::byte>(run.first(got * block_bytes));
}

uint64_t CachedBlockReader::FetchRun(uint64_t first,
                                     std::span<BlockImage> images,
                                     Counter* readahead_counter) {
  const uint32_t block_bytes = device_->block_size();
  for (uint64_t i = 0; i < images.size(); ++i) {
    images[i] = cache_->Lookup({cache_device_id_, first + i});
  }
  uint64_t passes = 0;
  for (uint64_t i = 0; i < images.size();) {
    if (images[i]) {
      ++i;
      continue;
    }
    uint64_t j = i + 1;
    while (j < images.size() && !images[j]) {
      ++j;
    }
    ++passes;
    Result<std::span<const std::byte>> run =
        ReadRun(first + i, j - i, /*cache_below=*/0);
    const uint64_t got = run.ok() ? run->size() / block_bytes : 0;
    for (uint64_t k = 0; k < got; ++k) {
      images[i + k] = cache_->Insert({cache_device_id_, first + i + k},
                                     run->subspan(k * block_bytes,
                                                  block_bytes));
    }
    readahead_counter->Increment(got > 0 ? got - 1 : 0);
    i = j;
  }
  return passes;
}

Result<uint64_t> CachedBlockReader::Burn(std::span<const std::byte> image) {
  Result<uint64_t> burned = Submit([&] { return device_->AppendBlock(image); });
  if (burned.ok()) {
    cache_->Admit({cache_device_id_, burned.value()}, image);
  }
  return burned;
}

Status CachedBlockReader::Invalidate(uint64_t block) {
  Status invalidated =
      Submit([&] { return device_->InvalidateBlock(block); });
  Evict(block);
  return invalidated;
}

void CachedBlockReader::Evict(uint64_t block) {
  cache_->Erase({cache_device_id_, block});
}

}  // namespace clio
