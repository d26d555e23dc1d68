// Per-request tracing: trace IDs, spans, and a lock-free flight recorder.
//
// The metrics layer (src/obs/metrics.h) answers "how slow are appends on
// average?"; this layer answers "why was THIS append slow?". Every wire
// request carries a 64-bit trace ID (stamped by NetLogClient, propagated
// in the v2 frame header — src/net/frame.h), and each stage the request
// passes through records a span: request frame read, dispatch, group-commit
// batch wait, the commit thread's staging append, the covering force, the
// volume-writer append, and the physical device burn. A dump of the
// recorder reconstructs the timeline of any recent request — you can see
// whether a slow append spent its time waiting in the batch, in Force, or
// in the burn.
//
// Flight recorder: each recording thread owns a fixed-size ring of spans
// (a per-thread "black box"), registered in a process-wide list. Recording
// is wait-free — no locks, no allocation, a handful of relaxed atomics —
// so it is safe on every hot path. Memory is bounded: kRingSpans slots per
// thread, and rings are recycled through a free list when threads exit, so
// the footprint scales with peak concurrency, not thread churn. When a
// ring wraps, the oldest spans are overwritten; Collect() reports how many
// were lost that way (drop accounting), so a dump is never silently
// partial.
//
// Consistency: spans are published with a per-slot sequence number
// (odd = write in progress). A concurrent Collect() skips slots mid-write
// and slots whose sequence moved under it, so it returns only whole spans.
// Every slot field is an atomic, so the race is benign for the language
// (TSan-clean) as well as for the data.
//
// Trace context: a thread-local current trace ID. The net server sets it
// (ScopedTraceContext) around each dispatched request; deep layers
// (volume writer, device burn) attach spans via StageTimer without any
// API threading. Context id 0 means "not traced": a stage then feeds only
// its histogram, and a span-only site costs one thread-local read.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// Pipeline stages a request passes through. Values are wire-stable (the
// kTraceDump payload carries them raw); add new stages at the end.
enum class TraceStage : uint8_t {
  kUnknown = 0,
  kSessionRead = 1,    // event loop reading the request frame
  kDispatch = 2,       // decode + execute + encode of one request
  kBatchWait = 3,      // blocked in GroupCommitBatcher::Append
  kBatchAppend = 4,    // commit thread staging this entry into the log
  kForce = 5,          // device force covering this request
  kVolumeAppend = 6,   // LogVolumeWriter::Append
  kBurn = 7,           // WormDevice::AppendBlock (physical block burn)
  kClientCall = 8,     // client-side round trip, retries included
  kReplyWrite = 9,     // flushing the reply frame to the socket
};

// Stable lowercase label ("burn", "batch_wait", ...); "unknown" for
// out-of-range values.
std::string_view TraceStageName(TraceStage stage);

struct TraceSpan {
  uint64_t trace_id = 0;
  TraceStage stage = TraceStage::kUnknown;
  uint32_t thread = 0;   // recorder ring id, stable per recording thread
  uint64_t start_us = 0; // trace clock (microseconds since process start)
  uint64_t dur_us = 0;
};

// Microseconds on the process-wide trace clock (steady, anchored at first
// use). All spans in one process share this timebase, so dumps order and
// nest correctly.
uint64_t TraceNowUs();

// -- Trace context (thread-local). --

// The trace ID spans on this thread attach to; 0 when not tracing.
uint64_t CurrentTraceId();

// Sets the thread's trace context for a scope, restoring the previous
// value on exit (nesting-safe).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(uint64_t trace_id);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t prev_;
};

// A dump of recent spans. `dropped` counts spans overwritten in their ring
// before this collection (plus spans cut by a `max_spans` reply budget),
// so consumers can tell a complete timeline from a truncated one.
struct TraceDump {
  std::vector<TraceSpan> spans;
  uint64_t dropped = 0;
};

// Process-wide flight recorder. Record() is wait-free; Collect() walks
// every ring without stopping writers.
class FlightRecorder {
 public:
  // Spans retained per recording thread. 1024 spans ~= the last few
  // hundred requests through one worker thread; 48 KiB per ring.
  static constexpr size_t kRingSpans = 1024;

  static FlightRecorder& Instance();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records one finished span for `trace_id` (callers pass a nonzero id;
  // id 0 is reserved for "not traced" and is dropped here).
  void Record(uint64_t trace_id, TraceStage stage, uint64_t start_us,
              uint64_t dur_us);

  // Snapshot of recent spans, oldest first. With `min_total_us` > 0, only
  // spans of requests whose total latency (max span end - min span start
  // per trace id) reached the threshold are returned — the slow-request
  // filter. With `max_spans` > 0 the newest spans win and the cut is
  // counted into `dropped`.
  TraceDump Collect(uint64_t min_total_us = 0, size_t max_spans = 0) const;

  // Zeroes every ring in place. For test isolation, not production.
  void ResetForTest();

 private:
  // One span slot, publishable concurrently with collection. `seq` odd
  // means a write is in progress; a reader that sees `seq` change while
  // copying discards the copy.
  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint8_t> stage{0};
    std::atomic<uint64_t> start_us{0};
    std::atomic<uint64_t> dur_us{0};
  };

  struct Ring {
    explicit Ring(uint32_t ring_id) : id(ring_id) {}
    const uint32_t id;
    std::atomic<uint64_t> head{0};  // total spans ever written
    std::array<Slot, kRingSpans> slots;
  };

  // Releases a ring back to the free list on thread exit (the spans stay
  // collectable; only the slot for future writes is recycled).
  struct Lease {
    ~Lease();
    FlightRecorder* owner = nullptr;
    Ring* ring = nullptr;
  };

  FlightRecorder() = default;
  Ring* ThreadRing();
  void Release(Ring* ring);

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<Ring*> free_rings_;
};

// Records one finished stage — the single instrumentation point every
// timed stage funnels through: `hist`, when non-null, always gets the
// duration; a span is recorded only when `trace_id` is nonzero (traced).
void RecordStage(Histogram* hist, TraceStage stage, uint64_t trace_id,
                 uint64_t start_us, uint64_t dur_us);

// Times one stage from construction to destruction and records it through
// RecordStage, reading the trace clock once at each end. Either half may
// be empty: a null histogram records only the span, and an untraced or
// stageless timer only the histogram. With both empty the timer never
// reads the clock, so a span-only site costs one thread-local read on
// untraced paths.
class StageTimer {
 public:
  // A stage of the thread's current trace context. Without a stage
  // (kUnknown) the timer feeds the histogram only and never spans.
  explicit StageTimer(Histogram* hist, TraceStage stage = TraceStage::kUnknown)
      : StageTimer(hist, stage,
                   stage == TraceStage::kUnknown ? 0 : CurrentTraceId()) {}
  // Explicit-id form for sites outside any thread context (the client's
  // round trip, which is where trace ids are born).
  StageTimer(Histogram* hist, TraceStage stage, uint64_t trace_id)
      : hist_(hist),
        stage_(stage),
        trace_id_(trace_id),
        start_us_(hist_ != nullptr || trace_id_ != 0 ? TraceNowUs() : 0) {}
  ~StageTimer() {
    if (hist_ != nullptr || trace_id_ != 0) {
      RecordStage(hist_, stage_, trace_id_, start_us_,
                  TraceNowUs() - start_us_);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Histogram* const hist_;
  const TraceStage stage_;
  const uint64_t trace_id_;
  const uint64_t start_us_;
};

// -- Analysis helpers (shared by cliotrace, tests, and the server's
//    slow-request filter). --

// Per-request rollup of a span set.
struct TraceSummary {
  uint64_t trace_id = 0;
  uint64_t start_us = 0;  // earliest span start
  uint64_t total_us = 0;  // latest span end - earliest span start
  size_t span_count = 0;
  std::map<TraceStage, uint64_t> stage_us;  // summed per stage
};

// Groups spans by trace id; returned slowest-first.
std::vector<TraceSummary> SummarizeTraces(const std::vector<TraceSpan>& spans);

// -- Wire form (the kTraceDump reply payload; see src/ipc/codec.h). --
//
// Layout, little-endian: u16 version, u64 dropped, u32 count, then per
// span: u64 trace_id, u8 stage, u32 thread, u64 start_us, u64 dur_us.
Bytes EncodeTraceDump(const TraceDump& dump);
Result<TraceDump> DecodeTraceDump(std::span<const std::byte> payload);

// Chrome trace_event JSON ("X" complete events, microsecond timestamps):
// the returned string saves to a file that opens directly in
// chrome://tracing or https://ui.perfetto.dev. Ring ids map to tids, so
// each recording thread gets its own track.
std::string TraceDumpToChromeJson(const TraceDump& dump);

}  // namespace clio

#endif  // SRC_OBS_TRACE_H_
