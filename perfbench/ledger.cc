#include "perfbench/ledger.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

namespace perfbench {
namespace {

auto Key(const clio::TraceSpan& s) {
  return std::make_tuple(s.thread, s.start_us, s.trace_id,
                         static_cast<uint8_t>(s.stage), s.dur_us);
}

bool KeyLess(const clio::TraceSpan& a, const clio::TraceSpan& b) {
  return Key(a) < Key(b);
}

// Ledger stages, outermost first. A stage's self time excludes time
// covered by any stage of a greater depth.
struct StageDef {
  const char* name;
  int depth;
};
constexpr StageDef kStages[] = {
    {"session_read", 1},  {"dispatch", 1},      {"reply_write", 1},
    {"batch_wait", 2},    {"batch_append", 3},  {"force", 3},
    {"volume_append", 4}, {"burn", 5},          {"dev_burn", 6},
    {"dev_read", 6},
};
constexpr size_t kStageCount = std::size(kStages);

int StageIndex(clio::TraceStage stage) {
  switch (stage) {
    case clio::TraceStage::kSessionRead: return 0;
    case clio::TraceStage::kDispatch: return 1;
    case clio::TraceStage::kReplyWrite: return 2;
    case clio::TraceStage::kBatchWait: return 3;
    case clio::TraceStage::kBatchAppend: return 4;
    case clio::TraceStage::kForce: return 5;
    case clio::TraceStage::kVolumeAppend: return 6;
    case clio::TraceStage::kBurn: return 7;
    default: return -1;  // client_call is the op itself; unknown is noise
  }
}
constexpr int kForce = 5;
constexpr int kDevBurn = 8;
constexpr int kDevRead = 9;

struct Interval {
  int stage;
  uint64_t start;
  uint64_t end;
};

// Length of the union of `parts` clipped to [lo, hi).
uint64_t CoveredLength(std::vector<std::pair<uint64_t, uint64_t>>& parts,
                       uint64_t lo, uint64_t hi) {
  std::sort(parts.begin(), parts.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [s, e] : parts) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

void SpanCollector::Start() {
  stop_ = false;
  captured_at_start_ = spans_.size();
  CollectOnce(/*baseline=*/true);
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      lock.unlock();
      CollectOnce(/*baseline=*/false);
      lock.lock();
    }
  });
}

void SpanCollector::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  CollectOnce(/*baseline=*/false);
  const uint64_t written = written_ - written_at_start_;
  const uint64_t captured = spans_.size() - captured_at_start_;
  dropped_ += written > captured ? written - captured : 0;
}

void SpanCollector::CollectOnce(bool baseline) {
  clio::TraceDump dump = clio::FlightRecorder::Instance().Collect();
  // Every ring slot ever written is either returned or counted as dropped.
  const uint64_t written = dump.spans.size() + dump.dropped;
  std::sort(dump.spans.begin(), dump.spans.end(), KeyLess);
  if (baseline) {
    written_at_start_ = written;
  } else {
    written_ = written;
    // A span missing from the previous collection is new: rings only
    // overwrite, so nothing older than that collection can reappear.
    for (const clio::TraceSpan& s : dump.spans) {
      if (!std::binary_search(previous_.begin(), previous_.end(), s,
                              KeyLess)) {
        spans_.push_back(s);
      }
    }
  }
  previous_ = std::move(dump.spans);
}

void BuildLedger(const std::vector<OpSpan>& ops,
                 const std::vector<clio::TraceSpan>& spans,
                 const std::vector<DeviceSpan>& device, uint64_t spans_dropped,
                 Sheet* sheet) {
  std::unordered_map<uint64_t, std::vector<Interval>> by_trace;
  for (const clio::TraceSpan& s : spans) {
    const int stage = StageIndex(s.stage);
    if (stage >= 0) {
      by_trace[s.trace_id].push_back({stage, s.start_us, s.start_us + s.dur_us});
    }
  }
  std::vector<Interval> untraced_device;  // sorted by start
  for (const DeviceSpan& d : device) {
    Interval iv{d.op == DeviceOp::kBurn ? kDevBurn : kDevRead, d.start_us,
                d.start_us + d.dur_us};
    if (d.trace_id != 0) {
      by_trace[d.trace_id].push_back(iv);
    } else {
      untraced_device.push_back(iv);
    }
  }
  std::sort(untraced_device.begin(), untraced_device.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });

  for (const char* op_name : kLedgerOps) {
    const std::string op(op_name);
    std::vector<double> traced_us;
    std::vector<double> untraced_us;
    std::vector<std::vector<double>> self(kStageCount);
    double residual_sum = 0;
    double op_sum = 0;
    for (const OpSpan& o : ops) {
      if (op != o.op) {
        continue;
      }
      (o.traced ? traced_us : untraced_us).push_back(o.dur_us);
      if (!o.traced) {
        continue;
      }
      const uint64_t lo = o.start_us;
      const uint64_t hi = o.start_us + o.dur_us;
      std::vector<Interval> mine;
      for (size_t i = 0; i < o.n_ids; ++i) {
        auto it = by_trace.find(o.trace_ids[i]);
        if (it != by_trace.end()) {
          mine.insert(mine.end(), it->second.begin(), it->second.end());
        }
      }
      // Device work of a shared batch force runs without a trace id.
      const size_t own = mine.size();
      for (size_t i = 0; i < own; ++i) {
        if (mine[i].stage != kForce) {
          continue;
        }
        auto first = std::lower_bound(
            untraced_device.begin(), untraced_device.end(), mine[i].start,
            [](const Interval& d, uint64_t t) { return d.start < t; });
        for (auto d = first; d != untraced_device.end() &&
                             d->start < mine[i].end;
             ++d) {
          if (d->end <= mine[i].end) {
            mine.push_back(*d);
          }
        }
      }
      std::vector<double> stage_self(kStageCount, 0);
      std::vector<std::pair<uint64_t, uint64_t>> parts;
      for (const Interval& s : mine) {
        parts.clear();
        for (const Interval& d : mine) {
          if (kStages[d.stage].depth > kStages[s.stage].depth) {
            parts.emplace_back(d.start, d.end);
          }
        }
        const uint64_t s_lo = std::max(s.start, lo);
        const uint64_t s_hi = std::min(s.end, hi);
        if (s_hi <= s_lo) {
          continue;
        }
        stage_self[s.stage] += static_cast<double>(
            (s_hi - s_lo) - CoveredLength(parts, s_lo, s_hi));
      }
      parts.clear();
      for (const Interval& s : mine) {
        parts.emplace_back(s.start, s.end);
      }
      residual_sum += static_cast<double>(o.dur_us - CoveredLength(parts, lo, hi));
      op_sum += static_cast<double>(o.dur_us);
      for (size_t i = 0; i < kStageCount; ++i) {
        self[i].push_back(stage_self[i]);
      }
    }
    const std::string prefix = "trace." + op + ".";
    for (size_t i = 0; i < kStageCount; ++i) {
      const std::string name = prefix + kStages[i].name;
      double sum = 0;
      for (double v : self[i]) {
        sum += v;
      }
      sheet->Set(name + ".self_us_mean",
                 self[i].empty() ? 0 : sum / self[i].size(), "us");
      sheet->Set(name + ".self_us_p99", Quantile(self[i], 0.99), "us");
    }
    sheet->Set(prefix + "ops_traced", traced_us.size(), "count");
    sheet->Set(prefix + "residual_frac", Ratio(residual_sum, op_sum), "ratio");
    const double untraced_median = Median(untraced_us);
    sheet->Set(prefix + "overhead_frac",
               untraced_median == 0 ? 0
                                    : Median(traced_us) / untraced_median - 1,
               "ratio");
  }
  sheet->Set("trace.spans_dropped", spans_dropped, "count");
}

}  // namespace perfbench
