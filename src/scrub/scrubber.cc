#include "src/scrub/scrubber.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/clio/volume_walk.h"
#include "src/obs/metrics.h"

namespace clio {
namespace {

// The clio.scrub.<name> counter. The per-lane ones (passes,
// blocks_scanned, quarantined_blocks) pass their service's metric lane and
// are looked up per pass, volume or verdict, never per block.
Counter* ScrubCounter(const std::string& name,
                      std::optional<uint32_t> lane = std::nullopt) {
  return ObsRegistry().counter(LaneMetricName("clio.scrub." + name, lane));
}

// Transient-read retries per block, the probes backing off exponentially.
constexpr int kMaxReadRetries = 4;
constexpr uint64_t kRetryBackoffMs = 5;
constexpr uint64_t kRetryBackoffCapMs = 100;

}  // namespace

Scrubber::Scrubber(LogService* service, const ScrubOptions& options)
    : service_(service), options_(options) {}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start() {
  std::lock_guard<std::mutex> lock(wake_mu_);
  if (running_) {
    return;
  }
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { ThreadMain(); });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(wake_mu_);
  running_ = false;
}

bool Scrubber::SleepFor(uint64_t ms) {
  std::unique_lock<std::mutex> lock(wake_mu_);
  wake_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                    [this] { return stop_requested_; });
  return !stop_requested_;
}

void Scrubber::ThreadMain() {
  while (SleepFor(options_.interval_ms)) {
    // Idle detection: a tick that sees blocks burning yields to the append
    // path, but only max_busy_yields times in a row — the scrub keeps a
    // floor of progress on a busy server.
    const uint64_t burned = service_->TotalSpace().blocks_burned;
    if (burned != last_seen_burned_ &&
        busy_yields_ < options_.max_busy_yields) {
      last_seen_burned_ = burned;
      ++busy_yields_;
      continue;
    }
    busy_yields_ = 0;
    last_seen_burned_ = burned;
    (void)RunOnce();
  }
}

Result<Scrubber::PassStats> Scrubber::RunOnce() {
  Counter* passes = ScrubCounter("passes", service_->partition_index());

  PassStats stats;
  const std::optional<std::pair<uint32_t, uint64_t>> cursor =
      service_->ScrubCursor();
  uint32_t volume_index = 0;
  uint64_t from = 1;
  // A cursor naming a volume the sequence lacks restarts at the seed.
  if (cursor.has_value() &&
      service_->ChainSeed(cursor->first).status().code() !=
          StatusCode::kOutOfRange) {
    volume_index = cursor->first;
    from = std::max<uint64_t>(cursor->second, 1);
  }
  // Volume by volume until the sequence ends; a roll that appends a
  // volume mid-pass is covered too.
  for (; ScrubVolume(volume_index, from, /*resumed=*/from > 1, &stats);
       ++volume_index, from = 1) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (stop_requested_) {
      return stats;  // partial pass; the cursor marks where to resume
    }
  }
  // Pass complete: rewind the persisted cursor so the next pass (or a
  // restart) replays the chain from the seed — the full-pass walk is what
  // re-checks the prefix the O(1) recovery shortcut trusts.
  if (auto now = service_->ScrubCursor();
      now.has_value() && (now->first != 0 || now->second != 1)) {
    PersistCursor(0, 1);
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
  passes->Increment();
  return stats;
}

bool Scrubber::ScrubVolume(uint32_t volume_index, uint64_t from,
                           bool resumed, PassStats* stats) {
  static Counter* corrupt = ScrubCounter("corrupt_blocks");
  static Counter* mismatches = ScrubCounter("chain_mismatches");
  static Counter* retries = ScrubCounter("retries");
  Counter* scanned =
      ScrubCounter("blocks_scanned", service_->partition_index());

  auto seed = service_->ChainSeed(volume_index);
  if (!seed.ok()) {
    // No such volume ends the pass; an offline one is skipped — scrubbing
    // must not force a mount.
    return seed.status().code() != StatusCode::kOutOfRange;
  }
  // A from-seed pass checks every link including the first; a mid-pass
  // resume adopts the first valid block's stored tag.
  ChainCheck chain(seed.value(), /*from_seed=*/!resumed);
  uint64_t since_persist = 0;
  auto visit = [&](const WalkedBlock& w) {
    ++stats->blocks_scanned;
    scanned->Increment();
    const ChainCheck::Verdict verdict = chain.Feed(w);
    if ((w.kind == BlockKind::kGarbage && !w.quarantined) ||
        verdict == ChainCheck::Verdict::kUnchained) {
      // A v1 footer inside a chained volume is as damning as a CRC
      // failure: the block was not burned by this volume's writer.
      ++stats->corrupt_blocks;
      corrupt->Increment();
      Quarantine(volume_index, w.block, stats);
    } else if (verdict == ChainCheck::Verdict::kMismatch) {
      ++stats->chain_mismatches;
      mismatches->Increment();
      Quarantine(volume_index, chain.convicted(), stats);
    }
    if (++since_persist >= options_.cursor_persist_blocks) {
      since_persist = 0;
      PersistCursor(volume_index, w.block + 1);
    }
    return Status::Ok();
  };
  auto probe = [&](uint64_t b) {
    return service_->ProbeBlock(volume_index, b);
  };

  // The walk ends at the burned end, where ProbeBlock answers kOutOfRange.
  VolumeWalk walk(std::max<uint64_t>(from, 1), VolumeWalk::kUnbounded);
  uint64_t budget = options_.blocks_per_tick;
  int attempt = 0;
  uint64_t backoff = kRetryBackoffMs;
  while (!walk.done()) {
    // Pacing: between chunks, sleep an interval (on the background thread)
    // so appends and readers get the device.
    if (budget == 0) {
      budget = options_.blocks_per_tick;
      bool paced_sleep = false;
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        if (stop_requested_) {
          PersistCursor(volume_index, walk.next());
          return true;
        }
        paced_sleep = running_;
      }
      if (paced_sleep && !SleepFor(options_.interval_ms)) {
        PersistCursor(volume_index, walk.next());
        return true;
      }
    }
    const uint64_t at = walk.next();
    const Status read = walk.Run(probe, visit, budget);
    if (walk.next() != at) {
      budget -= walk.next() - at;
      attempt = 0;
      backoff = kRetryBackoffMs;
    }
    if (read.ok()) {
      continue;
    }
    // A transient read: back off and probe the same block again. Once the
    // retries run out, skip it without a verdict.
    ++stats->retries;
    retries->Increment();
    if (attempt == kMaxReadRetries || !SleepFor(backoff)) {
      (void)visit(walk.Skip());
      --budget;
      attempt = 0;
      backoff = kRetryBackoffMs;
    } else {
      ++attempt;
      backoff = std::min(backoff * 2, kRetryBackoffCapMs);
    }
  }
  return true;
}

void Scrubber::Quarantine(uint32_t volume_index, uint64_t block,
                          PassStats* stats) {
  Counter* quarantined =
      ScrubCounter("quarantined_blocks", service_->partition_index());
  // The in-memory verdict stands even when persisting the record fails
  // (see LogService::QuarantineBlock); a failed persist is re-exported at
  // the next volume roll. The probe just saw the block unquarantined, so
  // the verdict is new unless another judge raced this one to it.
  (void)service_->QuarantineBlock(volume_index, block);
  ++stats->quarantined;
  quarantined->Increment();
}

void Scrubber::PersistCursor(uint32_t volume_index, uint64_t block) {
  static Counter* cursor_records = ScrubCounter("cursor_records");
  if (service_->PersistScrubCursor(volume_index, block).ok()) {
    cursor_records->Increment();
  }
}

}  // namespace clio
