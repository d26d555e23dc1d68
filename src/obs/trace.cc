#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/obs/metrics.h"

namespace clio {
namespace {

thread_local uint64_t tls_trace_id = 0;

constexpr uint16_t kTraceDumpVersion = 1;
constexpr uint8_t kMaxStage = static_cast<uint8_t>(TraceStage::kReplyWrite);

}  // namespace

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kUnknown:
      break;
    case TraceStage::kSessionRead:
      return "session_read";
    case TraceStage::kDispatch:
      return "dispatch";
    case TraceStage::kBatchWait:
      return "batch_wait";
    case TraceStage::kBatchAppend:
      return "batch_append";
    case TraceStage::kForce:
      return "force";
    case TraceStage::kVolumeAppend:
      return "volume_append";
    case TraceStage::kBurn:
      return "burn";
    case TraceStage::kClientCall:
      return "client_call";
    case TraceStage::kReplyWrite:
      return "reply_write";
  }
  return "unknown";
}

uint64_t TraceNowUs() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - origin)
                .count();
  return static_cast<uint64_t>(us < 0 ? 0 : us);
}

uint64_t CurrentTraceId() { return tls_trace_id; }

ScopedTraceContext::ScopedTraceContext(uint64_t trace_id)
    : prev_(tls_trace_id) {
  tls_trace_id = trace_id;
}

ScopedTraceContext::~ScopedTraceContext() { tls_trace_id = prev_; }

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Lease::~Lease() {
  if (owner != nullptr && ring != nullptr) {
    owner->Release(ring);
  }
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  thread_local Lease lease;
  if (lease.ring == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (!free_rings_.empty()) {
      lease.ring = free_rings_.back();
      free_rings_.pop_back();
    } else {
      rings_.push_back(
          std::make_unique<Ring>(static_cast<uint32_t>(rings_.size())));
      lease.ring = rings_.back().get();
    }
    lease.owner = this;
  }
  return lease.ring;
}

void FlightRecorder::Release(Ring* ring) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  free_rings_.push_back(ring);
}

void FlightRecorder::Record(uint64_t trace_id, TraceStage stage,
                            uint64_t start_us, uint64_t dur_us) {
  if (trace_id == 0) {
    return;
  }
  Ring* ring = ThreadRing();
  uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[head % kRingSpans];
  // Seqlock writer. Odd seq marks the slot mid-write; the release fence
  // keeps the field stores from sinking above the odd store (a bare
  // release store would only order what precedes it), and the final even
  // release store publishes the fields to any collector that reads it.
  uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.stage.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
  slot.start_us.store(start_us, std::memory_order_relaxed);
  slot.dur_us.store(dur_us, std::memory_order_relaxed);
  slot.seq.store(seq + 2, std::memory_order_release);
  ring->head.store(head + 1, std::memory_order_release);
  static Counter* recorded = ObsRegistry().counter("clio.trace.spans");
  recorded->Increment();
}

void RecordStage(Histogram* hist, TraceStage stage, uint64_t trace_id,
                 uint64_t start_us, uint64_t dur_us) {
  if (hist != nullptr) {
    hist->Record(dur_us);
  }
  if (trace_id != 0) {
    FlightRecorder::Instance().Record(trace_id, stage, start_us, dur_us);
  }
}

TraceDump FlightRecorder::Collect(uint64_t min_total_us,
                                  size_t max_spans) const {
  TraceDump dump;
  std::vector<Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    rings.reserve(rings_.size());
    for (const auto& ring : rings_) {
      rings.push_back(ring.get());
    }
  }
  for (Ring* ring : rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t available = std::min<uint64_t>(head, kRingSpans);
    if (head > kRingSpans) {
      dump.dropped += head - kRingSpans;
    }
    for (uint64_t i = head - available; i < head; ++i) {
      const Slot& slot = ring->slots[i % kRingSpans];
      uint32_t before = slot.seq.load(std::memory_order_acquire);
      if (before % 2 != 0) {
        ++dump.dropped;  // mid-write; being overwritten right now
        continue;
      }
      TraceSpan span;
      span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      span.stage = static_cast<TraceStage>(
          std::min(slot.stage.load(std::memory_order_relaxed), kMaxStage));
      span.start_us = slot.start_us.load(std::memory_order_relaxed);
      span.dur_us = slot.dur_us.load(std::memory_order_relaxed);
      span.thread = ring->id;
      // Seqlock reader: the acquire fence keeps the field loads above the
      // re-read of seq, so an unchanged even seq proves the copy is whole.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != before ||
          span.trace_id == 0) {
        ++dump.dropped;  // torn by a concurrent overwrite
        continue;
      }
      dump.spans.push_back(span);
    }
  }
  if (min_total_us > 0) {
    std::vector<TraceSummary> summaries = SummarizeTraces(dump.spans);
    std::vector<uint64_t> slow;
    for (const TraceSummary& s : summaries) {
      if (s.total_us >= min_total_us) {
        slow.push_back(s.trace_id);
      }
    }
    std::sort(slow.begin(), slow.end());
    std::erase_if(dump.spans, [&](const TraceSpan& span) {
      return !std::binary_search(slow.begin(), slow.end(), span.trace_id);
    });
  }
  std::sort(dump.spans.begin(), dump.spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.start_us < b.start_us;
            });
  if (max_spans > 0 && dump.spans.size() > max_spans) {
    // Newest spans win: a flight recorder's job is the recent past.
    dump.dropped += dump.spans.size() - max_spans;
    dump.spans.erase(dump.spans.begin(),
                     dump.spans.end() - static_cast<ptrdiff_t>(max_spans));
  }
  return dump;
}

void FlightRecorder::ResetForTest() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& ring : rings_) {
    for (auto& slot : ring->slots) {
      slot.trace_id.store(0, std::memory_order_relaxed);
      slot.seq.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Analysis

std::vector<TraceSummary> SummarizeTraces(
    const std::vector<TraceSpan>& spans) {
  std::map<uint64_t, TraceSummary> by_trace;
  for (const TraceSpan& span : spans) {
    TraceSummary& summary = by_trace[span.trace_id];
    const uint64_t end = span.start_us + span.dur_us;
    if (summary.span_count == 0) {
      summary.trace_id = span.trace_id;
      summary.start_us = span.start_us;
      summary.total_us = span.dur_us;
    } else {
      // Capture the accumulated end before start_us can move down: spans
      // arrive in any order (decoded dumps carry no sortedness guarantee),
      // and updating the minimum first would shift the end with it.
      const uint64_t last_end = summary.start_us + summary.total_us;
      summary.start_us = std::min(summary.start_us, span.start_us);
      summary.total_us = std::max(end, last_end) - summary.start_us;
    }
    summary.stage_us[span.stage] += span.dur_us;
    ++summary.span_count;
  }
  std::vector<TraceSummary> out;
  out.reserve(by_trace.size());
  for (auto& [id, summary] : by_trace) {
    out.push_back(std::move(summary));
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSummary& a, const TraceSummary& b) {
              return a.total_us > b.total_us;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Wire form

Bytes EncodeTraceDump(const TraceDump& dump) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU16(kTraceDumpVersion);
  w.PutU64(dump.dropped);
  w.PutU32(static_cast<uint32_t>(dump.spans.size()));
  for (const TraceSpan& span : dump.spans) {
    w.PutU64(span.trace_id);
    w.PutU8(static_cast<uint8_t>(span.stage));
    w.PutU32(span.thread);
    w.PutU64(span.start_us);
    w.PutU64(span.dur_us);
  }
  return out;
}

Result<TraceDump> DecodeTraceDump(std::span<const std::byte> payload) {
  ByteReader r(payload);
  uint16_t version = r.GetU16();
  if (r.failed() || version == 0 || version > kTraceDumpVersion) {
    return Corrupt("unsupported trace dump version");
  }
  TraceDump dump;
  dump.dropped = r.GetU64();
  uint32_t count = r.GetU32();
  dump.spans.reserve(std::min<uint32_t>(count, 1u << 20));
  for (uint32_t i = 0; i < count && !r.failed(); ++i) {
    TraceSpan span;
    span.trace_id = r.GetU64();
    uint8_t stage = r.GetU8();
    span.stage = static_cast<TraceStage>(std::min(stage, kMaxStage));
    span.thread = r.GetU32();
    span.start_us = r.GetU64();
    span.dur_us = r.GetU64();
    dump.spans.push_back(span);
  }
  if (r.failed() || dump.spans.size() != count) {
    return Corrupt("malformed trace dump");
  }
  return dump;
}

// ---------------------------------------------------------------------------
// Chrome trace_event export

std::string TraceDumpToChromeJson(const TraceDump& dump) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%" PRIu64 "\"", dump.dropped);
  out.append(buf);
  out.append("},\"traceEvents\":[");
  bool first = true;
  for (const TraceSpan& span : dump.spans) {
    if (!first) {
      out.append(",");
    }
    first = false;
    std::string_view name = TraceStageName(span.stage);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, span.start_us);
    out.append("{\"name\":\"");
    out.append(name);
    out.append("\",\"cat\":\"clio\",\"ph\":\"X\",\"ts\":");
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, span.dur_us);
    out.append(",\"dur\":");
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "%u", span.thread);
    out.append(",\"pid\":1,\"tid\":");
    out.append(buf);
    std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", span.trace_id);
    out.append(",\"args\":{\"trace_id\":");
    out.append(buf);
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace clio
