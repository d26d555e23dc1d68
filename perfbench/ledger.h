// The traced run's per-layer ledger.
//
// Three span sources are merged on the flight recorder's clock:
//  - the benchmark's own client-op spans (OpSpan), one per measured op,
//    keyed by the trace ids NetLogClient stamped on its wire requests;
//  - the server's existing stage spans (dispatch, batch_wait, ...), taken
//    from the flight recorder by a SpanCollector often enough that a ring
//    wrap is counted rather than silently losing spans;
//  - the device decorator's spans (dev_burn, dev_read), keyed by the
//    calling thread's trace id. Device calls with no trace id that fall
//    inside one of an op's force spans are charged to that op.
// A stage's self time is its span time not covered by a deeper stage; the
// residual is the part of the client op no server stage covers (wire,
// event-loop queue, and anything else without a span).
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/device_model.h"
#include "src/obs/trace.h"

namespace perfbench {

// Op types the ledger reports, in print order.
inline constexpr std::array<const char*, 3> kLedgerOps = {"append", "query",
                                                          "read_batch"};

struct OpSpan {
  const char* op = "";  // one of kLedgerOps
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  std::array<uint64_t, 4> trace_ids{};  // the wire requests the op made
  uint8_t n_ids = 0;
  bool traced = false;  // issued while the benchmark's spans were on
};

// Between Start() and Stop(), collects the flight recorder every `period`
// on its own thread, keeping each span once, and counts the spans written
// meanwhile that no collection saw (overwritten by a ring wrap, or torn
// mid-write). Start/Stop may repeat; spans and drops accumulate.
class SpanCollector {
 public:
  explicit SpanCollector(std::chrono::milliseconds period) : period_(period) {}
  ~SpanCollector() { Stop(); }
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  void Start();
  void Stop();

  const std::vector<clio::TraceSpan>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  void CollectOnce(bool baseline);

  const std::chrono::milliseconds period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;

  std::vector<clio::TraceSpan> previous_;  // last collection, sorted
  std::vector<clio::TraceSpan> spans_;
  size_t captured_at_start_ = 0;
  uint64_t written_at_start_ = 0;
  uint64_t written_ = 0;
  uint64_t dropped_ = 0;
};

// Adds trace.<op>.<stage>.self_us_mean / _p99, trace.<op>.residual_frac,
// trace.<op>.overhead_frac and trace.spans_dropped to `sheet`, for every
// op in kLedgerOps (zeros for ops the workload does not issue).
void BuildLedger(const std::vector<OpSpan>& ops,
                 const std::vector<clio::TraceSpan>& spans,
                 const std::vector<DeviceSpan>& device, uint64_t spans_dropped,
                 Sheet* sheet);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
