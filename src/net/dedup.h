// AppendDedupIndex: the server half of the idempotent-append contract.
//
// A NetLogClient stamps every append with (client_id, request_seq) and
// reuses the stamp when it retransmits after a lost reply. The server
// runs each stamped append through this index. Entries move through three
// states:
//
//   in-flight  claimed by Begin(); the append is executing
//   staged     the append landed in the log buffer (it HAS a timestamp
//              and WILL be burned by the next successful force) but is
//              not yet known durable — a failed batch force leaves
//              entries here
//   durable    the covering force completed; the ack can be replayed
//              verbatim forever (within the window)
//
// The staged state is what makes "force failed" retries safe: the entry
// is already in the log, so the retry must NOT re-execute (that would
// duplicate it) — instead the server re-forces and replays the recorded
// ack. Only a failed *stage* (nothing landed) releases the stamp for
// re-execution.
//
// The window is bounded two ways: per client, the most recent
// `window_per_client` completed appends (a client retransmits only its
// last few in-flight requests, so a small window suffices); across
// clients, `max_clients` windows with LRU eviction.
//
// Lifetime note: the index is deliberately decoupled from NetLogServer so
// a supervisor can own one across server restarts — a reply lost to a
// server crash is then still deduplicated when the client retries against
// the restarted server. The supervisor MUST call DropNonDurable() before
// resuming service after a crash: staged-only entries lived in the dead
// server's buffer and are gone from the recovered log, so their retries
// must re-execute. See DESIGN.md §10.
#ifndef SRC_NET_DEDUP_H_
#define SRC_NET_DEDUP_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>

#include "src/clio/volume_writer.h"
#include "src/util/status.h"

namespace clio {

struct AppendDedupOptions {
  size_t window_per_client = 256;
  size_t max_clients = 1024;
  // Age bound on completed stamps, bounding index memory for long-lived
  // clients that trickle (a full window of 256 stamps per client would
  // otherwise pin acks from hours ago). A DURABLE stamp older than this is
  // evicted; its retry would re-execute, but a client retransmits within
  // seconds, never hours, so an expired stamp has no live retry. Staged
  // stamps are NEVER age-evicted — their ack was not delivered durable and
  // the retry is still expected. 0 disables (default).
  uint64_t max_stamp_age_us = 0;
};

class AppendDedupIndex {
 public:
  // What Begin() hands back for a stamp that already executed.
  struct Replay {
    AppendResult result;
    bool durable = false;  // false: staged only — re-force before acking
  };

  explicit AppendDedupIndex(const AppendDedupOptions& options = {})
      : options_(options) {}

  AppendDedupIndex(const AppendDedupIndex&) = delete;
  AppendDedupIndex& operator=(const AppendDedupIndex&) = delete;

  // Claims (client_id, request_seq) for execution, or replays it.
  // Returns nullopt when the caller now owns the stamp and MUST follow up
  // with CompleteStaged/CompleteSuccess or CompleteFailure; returns the
  // recorded replay when this stamp already executed. Blocks while
  // another thread is executing the same stamp.
  std::optional<Replay> Begin(uint64_t client_id, uint64_t request_seq);

  // The claimed append landed in the log buffer; `result` carries its
  // timestamp. Not yet known durable.
  void CompleteStaged(uint64_t client_id, uint64_t request_seq,
                      const AppendResult& result);
  // The covering force completed; retransmits replay the ack verbatim.
  void MarkDurable(uint64_t client_id, uint64_t request_seq);
  // A force covers EVERY entry staged before it, not just the batch that
  // issued it — call this (holding the LogService::WriteHandle that ran
  // a successful Force) so entries whose own covering force failed earlier
  // are promoted once a later force lands. Without this, such an entry —
  // burned to media but still recorded kStaged — would be dropped by
  // DropNonDurable at the next restart and duplicated by its retry.
  void MarkAllStagedDurable();
  // Staged + durable in one step (unforced appends).
  void CompleteSuccess(uint64_t client_id, uint64_t request_seq,
                       const AppendResult& result);
  // Releases a claimed stamp without recording anything — the append
  // never landed, so the next Begin() with the same stamp re-executes.
  void CompleteFailure(uint64_t client_id, uint64_t request_seq);

  // Evicts durable stamps whose age (relative to `now_us`, on the same
  // steady-clock-microseconds scale completions are stamped with) exceeds
  // max_stamp_age_us. Runs implicitly on every completion; this entry
  // point exists for tests and for supervisors that want to reclaim
  // memory from idle windows on a timer. No-op when the bound is 0.
  void PruneExpired(uint64_t now_us);
  // The steady-clock microsecond scale completions are stamped with.
  static uint64_t NowUs();

  // Forgets every entry not marked durable. A supervisor calls this
  // between server incarnations: staged entries died in the crashed
  // server's buffer, so their retries must re-execute, and in-flight
  // claims belong to sessions that no longer exist.
  void DropNonDurable();

  // -- Counters. --
  uint64_t replays() const;  // Begin() calls answered from the window
  uint64_t claims() const;   // Begin() calls that claimed the stamp

 private:
  enum class State { kInFlight, kStaged, kDurable };
  struct Entry {
    State state = State::kInFlight;
    AppendResult result;
    uint64_t completed_at_us = 0;  // NowUs() at staging; 0 while in flight
  };
  struct ClientWindow {
    std::map<uint64_t, Entry> entries;
    std::deque<uint64_t> completed_order;  // completion order, for pruning
    uint64_t lru_tick = 0;
    size_t in_flight = 0;
  };

  // All private helpers require mu_ held.
  ClientWindow* Window(uint64_t client_id);
  Entry* Find(uint64_t client_id, uint64_t request_seq);
  void EvictIdleClients();
  void Prune(ClientWindow* window);
  void PruneExpiredLocked(ClientWindow* window, uint64_t now_us);

  const AppendDedupOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, ClientWindow> clients_;
  uint64_t lru_clock_ = 0;
  uint64_t replays_ = 0;
  uint64_t claims_ = 0;
};

}  // namespace clio

#endif  // SRC_NET_DEDUP_H_
