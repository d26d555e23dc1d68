#include "src/net/batcher.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {

GroupCommitBatcher::GroupCommitBatcher(LogService* service,
                                       const GroupCommitOptions& options)
    : service_(service), options_(options) {
  const std::optional<uint32_t> lane = service_->partition_index();
  auto histogram = [&](std::string_view name) {
    return ObsRegistry().histogram(LaneMetricName(name, lane));
  };
  auto counter = [&](std::string_view name) {
    return ObsRegistry().counter(LaneMetricName(name, lane));
  };
  metrics_.entries = histogram("clio.net.batch.entries");
  metrics_.dwell_us = histogram("clio.net.batch.dwell_us");
  metrics_.commit_us = histogram("clio.net.batch.commit_us");
  metrics_.batches = counter("clio.net.batch.batches");
  metrics_.appends = counter("clio.net.batch.appends");
}

GroupCommitBatcher::~GroupCommitBatcher() { Stop(); }

void GroupCommitBatcher::Start() {
  thread_ = std::thread([this] { CommitLoop(); });
}

void GroupCommitBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    queue_cv_.notify_all();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

Result<AppendResult> GroupCommitBatcher::Append(const AppendRequest& request) {
  Pending pending;
  pending.request = &request;
  pending.enqueued = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      return Unavailable("group-commit batcher stopped");
    }
    queue_.push_back(&pending);
    queued_bytes_ += request.payload.size();
    queue_cv_.notify_all();
    done_cv_.wait(lock, [&] { return pending.result.has_value(); });
  }
  return std::move(*pending.result);
}

void GroupCommitBatcher::CommitLoop() {
  using Clock = std::chrono::steady_clock;
  // The hold is a timed wait of a few hundred microseconds; the default
  // 50 us timer slack would add up to that much again to every batch.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<Pending*> batch;
  Clock::time_point last_commit_end;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        return;  // stopping, fully drained
      }
      // Hold window: give concurrent committers until the deadline (or a
      // size/byte cap) to join this batch. It runs from the oldest
      // append's enqueue, not from this thread's wake-up, but never starts
      // before the previous commit ended. On stop, commit immediately —
      // drain beats batching.
      const auto deadline =
          std::max(queue_.front()->enqueued, last_commit_end) +
          std::chrono::microseconds(options_.max_hold_us);
      while (!stopping_ && queue_.size() < options_.max_batch_entries &&
             queued_bytes_ < options_.max_batch_bytes &&
             Clock::now() < deadline) {
        queue_cv_.wait_until(lock, deadline);
      }
      size_t take_bytes = 0;
      while (!queue_.empty() && batch.size() < options_.max_batch_entries &&
             take_bytes <= options_.max_batch_bytes) {
        Pending* p = queue_.front();
        queue_.pop_front();
        take_bytes += p->request->payload.size();
        queued_bytes_ -= p->request->payload.size();
        batch.push_back(p);
      }
    }
    CommitBatch(batch);
    batch.clear();
    last_commit_end = Clock::now();
  }
}

void GroupCommitBatcher::CommitBatch(const std::vector<Pending*>& batch) {
  metrics_.entries->Record(batch.size());
  auto commit_started = std::chrono::steady_clock::now();
  for (const Pending* pending : batch) {
    const uint64_t dwell = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            commit_started - pending->enqueued)
            .count());
    metrics_.dwell_us->Record(dwell);
  }
  StageTimer commit_timer(metrics_.commit_us);

  std::vector<Result<AppendResult>> results;
  results.reserve(batch.size());
  {
    LogService::WriteHandle writer = service_->LockForWrite();
    for (Pending* pending : batch) {
      const AppendRequest& request = *pending->request;
      // Re-establish the request's trace context on this (commit) thread
      // for the duration of its staging append, so the span here and the
      // volume-writer spans underneath attach to the right trace.
      ScopedTraceContext trace_scope(request.trace_id);
      StageTimer stage_span(nullptr, TraceStage::kBatchAppend);
      WriteOptions options;
      options.timestamped = request.timestamped;
      options.force = false;  // the batch force below covers this entry
      Result<AppendResult> staged =
          writer.Append(request.path, request.payload, options);
      if (dedup_ != nullptr && request.client_id != 0) {
        if (staged.ok()) {
          dedup_->CompleteStaged(request.client_id, request.request_seq,
                                 *staged);
        } else {
          dedup_->CompleteFailure(request.client_id, request.request_seq);
        }
      }
      results.push_back(std::move(staged));
    }
    // One force covers the whole batch; record its cost under every traced
    // member, since each of those requests paid (a share of) this wait.
    // There is deliberately no trace context here: the volume writer's own
    // context-driven kForce span would mis-attribute the shared force to
    // whichever request staged last.
    const uint64_t force_start_us = TraceNowUs();
    Status force = writer.Force();
    const uint64_t force_dur_us = TraceNowUs() - force_start_us;
    for (const Pending* pending : batch) {
      RecordStage(nullptr, TraceStage::kForce, pending->request->trace_id,
                  force_start_us, force_dur_us);
    }
    if (force.ok()) {
      if (dedup_ != nullptr) {
        // Still holding the writer: every kStaged entry was staged by an
        // earlier critical section, so this force covered it.
        dedup_->MarkAllStagedDurable();
      }
    } else {
      // Entries are appended but not known durable: a forced-append caller
      // must not be told "committed". Stamped entries stay kStaged in the
      // dedup index, so the client's retry replays the recorded ack (after
      // a fresh force) instead of logging a duplicate.
      for (auto& result : results) {
        if (result.ok()) {
          result = force;
        }
      }
    }
  }
  batches_committed_.fetch_add(1, std::memory_order_relaxed);
  entries_committed_.fetch_add(batch.size(), std::memory_order_relaxed);
  metrics_.batches->Increment();
  metrics_.appends->Increment(batch.size());
  // Publish under mu_: waiters evaluate `result.has_value()` under mu_.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->result = std::move(results[i]);
  }
  done_cv_.notify_all();
}

}  // namespace clio
