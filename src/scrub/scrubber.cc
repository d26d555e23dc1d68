#include "src/scrub/scrubber.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>
#include <utility>

#include "src/clio/chain.h"
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

// What one locked probe of a block concluded.
enum class Probe {
  kValid,
  kInvalidated,
  kCorrupt,
  kTransient,   // kUnavailable: retry, never quarantine
  kQuarantined, // already convicted in an earlier pass
  kGone,        // volume offline / shrunk / block past the burned end
};

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
    // Idle detection: a tick that sees the burned end (or the volume
    // count) moving yields to the append path, but only max_busy_yields
    // times in a row — the scrub keeps a floor of progress on a busy
    // server.
    uint64_t end = 0;
    size_t volumes = 0;
    {
      std::shared_lock<std::shared_mutex> lock(service_->mutex());
      volumes = service_->volume_count();
      end = service_->current_volume()->end_block();
    }
    if ((end != last_seen_end_ || volumes != last_seen_volumes_) &&
        busy_yields_ < options_.max_busy_yields) {
      last_seen_end_ = end;
      last_seen_volumes_ = volumes;
      ++busy_yields_;
      continue;
    }
    busy_yields_ = 0;
    last_seen_end_ = end;
    last_seen_volumes_ = volumes;
    (void)RunOnce();
  }
}

Result<Scrubber::PassStats> Scrubber::RunOnce() {
  Counter* passes = ScrubCounter("passes", service_->partition_index());

  PassStats stats;
  uint32_t start_volume = 0;
  uint64_t start_block = 1;
  {
    std::shared_lock<std::shared_mutex> lock(service_->mutex());
    if (auto cursor = service_->catalog().scrub_cursor()) {
      start_volume = cursor->first;
      start_block = std::max<uint64_t>(cursor->second, 1);
    }
  }
  size_t volume_count = 0;
  {
    std::shared_lock<std::shared_mutex> lock(service_->mutex());
    volume_count = service_->volume_count();
  }
  if (start_volume >= volume_count) {
    start_volume = 0;
    start_block = 1;
  }
  for (uint32_t vi = start_volume; vi < volume_count; ++vi) {
    uint64_t from = vi == start_volume ? start_block : 1;
    CLIO_RETURN_IF_ERROR(ScrubVolume(vi, from, /*resumed=*/from > 1,
                                     &stats));
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      if (stop_requested_) {
        return stats;  // partial pass; the cursor marks where to resume
      }
    }
    // A roll may have appended a volume while we scanned; cover it too.
    std::shared_lock<std::shared_mutex> lock(service_->mutex());
    volume_count = service_->volume_count();
  }
  // Pass complete: rewind the persisted cursor so the next pass (or a
  // restart) replays the chain from the seed — the full-pass walk is what
  // re-checks the prefix the O(1) recovery shortcut trusts.
  {
    std::shared_lock<std::shared_mutex> lock(service_->mutex());
    auto cursor = service_->catalog().scrub_cursor();
    if (!cursor.has_value() ||
        cursor->first != 0 || cursor->second != 1) {
      lock.unlock();
      if (cursor.has_value()) {
        PersistCursor(0, 1);
      }
    }
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
  passes->Increment();
  return stats;
}

Status Scrubber::ScrubVolume(uint32_t volume_index, uint64_t from,
                             bool resumed, PassStats* stats) {
  static Counter* corrupt = ScrubCounter("corrupt_blocks");
  static Counter* mismatches = ScrubCounter("chain_mismatches");
  static Counter* retries = ScrubCounter("retries");
  Counter* scanned =
      ScrubCounter("blocks_scanned", service_->partition_index());

  bool chained = false;
  uint64_t acc = 0;
  // A mid-pass resume starts desynced and adopts the first valid block's
  // stored tag (same resync rule the offline verifier uses); a from-seed
  // pass checks every link including the first.
  bool synced = false;
  {
    std::shared_lock<std::shared_mutex> lock(service_->mutex());
    if (volume_index >= service_->volume_count()) {
      return Status::Ok();
    }
    LogVolume* volume = service_->volume(volume_index);
    if (volume == nullptr) {
      return Status::Ok();  // offline: scrubbing must not force a mount
    }
    chained = volume->header().chained();
    acc = volume->chain_seed();
    synced = chained && !resumed;
  }

  uint64_t prev_valid = 0;
  bool have_prev_valid = false;
  uint64_t since_persist = 0;
  uint64_t since_pace = 0;

  for (uint64_t b = std::max<uint64_t>(from, 1);; ++b) {
    // Pacing: between chunks, yield the lock and (on the background
    // thread) sleep an interval so appends and readers interleave.
    if (since_pace >= options_.blocks_per_tick) {
      since_pace = 0;
      bool paced_sleep = false;
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        if (stop_requested_) {
          PersistCursor(volume_index, b);
          return Status::Ok();
        }
        paced_sleep = running_;
      }
      if (paced_sleep && !SleepFor(options_.interval_ms)) {
        PersistCursor(volume_index, b);
        return Status::Ok();
      }
    }
    ++since_pace;

    Probe probe = Probe::kGone;
    std::optional<uint64_t> tag;
    Sha256Digest commit{};
    uint64_t backoff = options_.retry_backoff_ms;
    for (int attempt = 0; attempt <= options_.max_read_retries; ++attempt) {
      std::shared_lock<std::shared_mutex> lock(service_->mutex());
      if (volume_index >= service_->volume_count()) {
        probe = Probe::kGone;
        break;
      }
      LogVolume* volume = service_->volume(volume_index);
      if (volume == nullptr || b >= volume->end_block()) {
        probe = Probe::kGone;
        break;
      }
      if (service_->catalog().IsQuarantined(volume_index, b)) {
        probe = Probe::kQuarantined;
        break;
      }
      OpStats op;
      auto parsed = volume->GetBlock(b, &op);
      if (parsed.ok()) {
        probe = Probe::kValid;
        tag = parsed.value().chain_tag();
        if (chained) {
          commit = ChainBlockCommit(parsed.value());
        }
        break;
      }
      StatusCode code = parsed.status().code();
      if (code == StatusCode::kInvalidated) {
        probe = Probe::kInvalidated;
        break;
      }
      if (code == StatusCode::kUnavailable) {
        probe = Probe::kTransient;
        lock.unlock();
        ++stats->retries;
        retries->Increment();
        if (attempt == options_.max_read_retries ||
            !SleepFor(backoff)) {
          break;  // still transient: skip, never quarantine
        }
        backoff = std::min(backoff * 2, options_.retry_backoff_cap_ms);
        continue;
      }
      probe = Probe::kCorrupt;
      break;
    }

    if (probe == Probe::kGone) {
      break;  // reached the burned end (or lost the volume)
    }
    ++stats->blocks_scanned;
    scanned->Increment();

    switch (probe) {
      case Probe::kValid:
        if (chained) {
          if (!tag.has_value()) {
            // A v1 footer inside a chained volume is as damning as a CRC
            // failure: the block was not burned by this volume's writer.
            ++stats->corrupt_blocks;
            corrupt->Increment();
            Quarantine(volume_index, b, stats);
            synced = false;
          } else {
            if (synced && *tag != acc) {
              // The stored tag covers the blocks BEFORE b, so a mismatch
              // convicts the last valid block we accepted — its commit
              // fed the accumulator. With no prior valid block the first
              // link itself is forged.
              ++stats->chain_mismatches;
              mismatches->Increment();
              Quarantine(volume_index,
                         have_prev_valid ? prev_valid : b, stats);
            }
            acc = AdvanceChainTag(*tag, commit);
            synced = true;
            prev_valid = b;
            have_prev_valid = true;
          }
        }
        break;
      case Probe::kCorrupt:
        ++stats->corrupt_blocks;
        corrupt->Increment();
        Quarantine(volume_index, b, stats);
        synced = false;
        break;
      case Probe::kInvalidated:
      case Probe::kTransient:
      case Probe::kQuarantined:
        // None of these yields a commit to advance with; re-sync at the
        // next valid block (see src/clio/verify.cc for why invalidated
        // blocks also desync).
        synced = false;
        break;
      case Probe::kGone:
        break;
    }

    if (++since_persist >= options_.cursor_persist_blocks) {
      since_persist = 0;
      PersistCursor(volume_index, b + 1);
    }
  }
  return Status::Ok();
}

void Scrubber::Quarantine(uint32_t volume_index, uint64_t block,
                          PassStats* stats) {
  Counter* quarantined =
      ScrubCounter("quarantined_blocks", service_->partition_index());

  std::unique_lock<std::shared_mutex> lock(service_->mutex());
  if (service_->catalog().IsQuarantined(volume_index, block)) {
    return;  // convicted by an earlier pass (or a peer) already
  }
  // The in-memory verdict stands even when persisting the record fails
  // (see LogService::QuarantineBlock); a failed persist is re-exported at
  // the next volume roll.
  (void)service_->QuarantineBlock(volume_index, block);
  ++stats->quarantined;
  quarantined->Increment();
}

void Scrubber::PersistCursor(uint32_t volume_index, uint64_t block) {
  static Counter* cursor_records = ScrubCounter("cursor_records");
  std::unique_lock<std::shared_mutex> lock(service_->mutex());
  if (service_->PersistScrubCursor(volume_index, block).ok()) {
    cursor_records->Increment();
  }
}

}  // namespace clio
