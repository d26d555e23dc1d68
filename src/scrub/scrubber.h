// Online volume scrubber (DESIGN.md §15).
//
// A background thread per LogService that re-reads burned blocks during
// idle I/O windows and replays the volume hash chain from the header seed
// (src/clio/chain.h), turning latent media rot and consistent forgeries
// into prompt, attributed verdicts instead of read-time surprises:
//
//  - an unparseable (CRC-failing) block is quarantined — recorded in the
//    catalog log, cached in the bounded bad-block set, and every future
//    read crossing it fails fast with kCorrupt while unaffected log files
//    keep serving (degraded mode);
//  - a valid block whose stored chain tag disagrees with the replayed
//    accumulator convicts the last valid block before it (that block's
//    commit fed the accumulator), which is quarantined the same way;
//  - transient kUnavailable reads are retried with capped exponential
//    backoff, never quarantined.
//
// Pacing: the scrubber wakes every interval_ms and scans chunks of at most
// blocks_per_tick blocks, sleeping an interval between chunks. It reads
// through the service's locked calls (ProbeBlock, ChainSeed, ScrubCursor),
// one block per SHARED acquisition, so sessions read concurrently and an
// append waits at most one block probe. A tick that observes blocks
// burning (appends in flight) yields, up to
// max_busy_yields in a row — the scrub makes progress even on a busy
// server, just more slowly. Progress within a pass is persisted through
// the catalog log every cursor_persist_blocks, so a restarted server
// resumes scanning where it left off instead of at block 0; every
// completed pass restarts from the seed, which also re-checks the prefix
// the O(1) recovery shortcut trusts.
#ifndef SRC_SCRUB_SCRUBBER_H_
#define SRC_SCRUB_SCRUBBER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/clio/log_service.h"

namespace clio {

struct ScrubOptions {
  uint64_t interval_ms = 25;         // sleep between ticks
  uint64_t blocks_per_tick = 64;     // blocks scanned between sleeps
  uint64_t cursor_persist_blocks = 512;  // persist progress every N blocks
  int max_busy_yields = 8;           // ticks yielded to appends in a row
};

class Scrubber {
 public:
  // What one full pass (or one resumed partial pass) found.
  struct PassStats {
    uint64_t blocks_scanned = 0;
    uint64_t corrupt_blocks = 0;     // CRC/framing failures found
    uint64_t chain_mismatches = 0;   // stored tag != replayed accumulator
    uint64_t quarantined = 0;        // new quarantine verdicts recorded
    uint64_t retries = 0;            // transient-read retries
  };

  Scrubber(LogService* service, const ScrubOptions& options);
  ~Scrubber();  // stops the thread if running

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // Starts the background thread. No-op if already running.
  void Start();
  // Stops and joins the background thread. No-op if not running.
  void Stop();

  // One synchronous scrub pass over every online volume, resuming from
  // the persisted cursor if one exists (the remainder of an interrupted
  // pass), otherwise from the start. Callable without Start(); the chaos
  // and scrub tests drive this directly.
  Result<PassStats> RunOnce();

  uint64_t passes_completed() const {
    return passes_.load(std::memory_order_relaxed);
  }

 private:
  // Scans one volume's burned blocks [from, end), chunked; accumulates
  // into *stats. `resumed` marks a mid-pass resume (the chain accumulator
  // re-syncs from the first valid block instead of the seed). False when
  // the sequence has no volume `volume_index` (the pass is over).
  bool ScrubVolume(uint32_t volume_index, uint64_t from, bool resumed,
                   PassStats* stats);
  // One block verdict helper: quarantine + counters.
  void Quarantine(uint32_t volume_index, uint64_t block, PassStats* stats);
  void PersistCursor(uint32_t volume_index, uint64_t block);

  void ThreadMain();
  // Interruptible sleep; returns false when Stop() was requested.
  bool SleepFor(uint64_t ms);

  LogService* service_;
  ScrubOptions options_;
  std::atomic<uint64_t> passes_{0};

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  bool running_ = false;

  // Busy-yield bookkeeping (see header comment): the service's burned
  // block count at the last tick.
  uint64_t last_seen_burned_ = 0;
  int busy_yields_ = 0;
};

}  // namespace clio

#endif  // SRC_SCRUB_SCRUBBER_H_
