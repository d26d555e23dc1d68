// Group-commit append batching.
//
// The paper's write-cost breakdown (§3.2) is dominated by the per-call
// force of the tail block; §2.3's buffering argument is that log writes
// amortize when they share block burns. This class realizes that economy
// at the service boundary: forced appends from many concurrent sessions
// queue here, a single commit thread drains the queue in arrival order,
// applies the whole batch to the LogService with per-entry forcing
// suppressed, then issues ONE Force() covering the batch. N concurrent
// committers pay ~1 device force instead of N, and their entries coalesce
// into shared block writes, at the cost of up to `max_hold_us` of added
// latency waiting for company.
//
// Durability contract: Append() returns only after the covering batch
// force has completed, so a caller that sees success has the same
// guarantee a direct forced append gives. If the batch force fails, every
// request in the batch is failed with that status (their bytes are in the
// buffer but not known durable).
#ifndef SRC_NET_BATCHER_H_
#define SRC_NET_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/ipc/codec.h"
#include "src/net/dedup.h"
#include "src/obs/metrics.h"

namespace clio {

struct GroupCommitOptions {
  // A batch commits as soon as it holds this many entries...
  size_t max_batch_entries = 64;
  // ...or this many payload bytes...
  size_t max_batch_bytes = 1 << 20;
  // ...or this long after the later of the oldest queued append's enqueue
  // and the end of the previous commit. An entry queued while the previous
  // batch committed gets a full hold after that commit ends, so company
  // arriving with its replies can still join it.
  uint64_t max_hold_us = 500;
};

class GroupCommitBatcher {
 public:
  // Each batch holds one LogService::WriteHandle across its appends and
  // force, so a batch is one exclusive critical section: readers see all
  // of it or none. The clio.net.batch.* metrics record into the service's
  // metric lane (partition_index()), so per-lane commit economics are
  // separable in kStats.
  GroupCommitBatcher(LogService* service, const GroupCommitOptions& options);
  ~GroupCommitBatcher();

  GroupCommitBatcher(const GroupCommitBatcher&) = delete;
  GroupCommitBatcher& operator=(const GroupCommitBatcher&) = delete;

  void Start();
  // Drains everything already queued, then stops the commit thread.
  // Appends arriving after Stop() fail with kUnavailable.
  void Stop();

  // Dedup bookkeeping for stamped requests (client_id != 0). The batcher
  // owns the staged/durable transition because only it can tell a failed
  // stage (nothing landed; the stamp is released) from a failed covering
  // force (the entry IS in the buffer; the stamp stays staged so a retry
  // replays instead of re-logging). Call before Start().
  void set_dedup(AppendDedupIndex* dedup) { dedup_ = dedup; }

  // Blocking: returns once the append is applied AND the covering batch
  // force has completed. Thread-safe; called from the server's workers.
  Result<AppendResult> Append(const AppendRequest& request);

  // Commit-economics counters (entries / batches ratio = mean batch size).
  uint64_t entries_committed() const {
    return entries_committed_.load(std::memory_order_relaxed);
  }
  uint64_t batches_committed() const {
    return batches_committed_.load(std::memory_order_relaxed);
  }

 private:
  // The clio.net.batch.* instruments, resolved once per batcher (the
  // registry hands out stable pointers).
  struct BatchMetrics {
    Histogram* entries = nullptr;
    Histogram* dwell_us = nullptr;
    Histogram* commit_us = nullptr;
    Counter* batches = nullptr;
    Counter* appends = nullptr;
  };

  // One waiting session-side append. Stack-allocated by Append(); the
  // queue holds pointers, and `result` is the handoff slot.
  struct Pending {
    const AppendRequest* request = nullptr;
    // When the request joined the queue. It anchors the hold of the batch
    // it heads, and dwell time (enqueue -> commit) is the latency group
    // commit adds while waiting for company.
    std::chrono::steady_clock::time_point enqueued;
    std::optional<Result<AppendResult>> result;
  };

  void CommitLoop();
  void CommitBatch(const std::vector<Pending*>& batch);

  LogService* const service_;
  const GroupCommitOptions options_;
  AppendDedupIndex* dedup_ = nullptr;
  BatchMetrics metrics_;

  std::mutex mu_;
  std::condition_variable queue_cv_;  // commit thread <- arrivals, stop
  std::condition_variable done_cv_;   // waiters <- results published
  std::deque<Pending*> queue_;
  size_t queued_bytes_ = 0;
  bool stopping_ = false;
  std::thread thread_;

  std::atomic<uint64_t> entries_committed_{0};
  std::atomic<uint64_t> batches_committed_{0};
};

}  // namespace clio

#endif  // SRC_NET_BATCHER_H_
