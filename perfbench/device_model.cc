#include "perfbench/device_model.h"

#include <algorithm>

#include "src/obs/trace.h"

namespace perfbench {
namespace {

// 0 means "not tracing"; a traced call never starts at 0.
uint64_t TraceStartUs(const DeviceProbe* probe) {
  return probe->tracing() ? std::max<uint64_t>(1, clio::TraceNowUs()) : 0;
}

}  // namespace

void DeviceProbe::Finish(DeviceOp op, uint64_t blocks, Clock::time_point start,
                         uint64_t trace_start_us) {
  double overshoot_us = -1;
  if (charging_.load(std::memory_order_relaxed)) {
    const auto deadline =
        start + std::chrono::microseconds(op == DeviceOp::kBurn ? kBurnChargeUs
                                                                : kReadChargeUs);
    SpinUntil(deadline);
    overshoot_us = Micros(Clock::now() - deadline);
  }
  const double inside_us = Micros(Clock::now() - start);
  DeviceSpan span;
  if (trace_start_us != 0) {
    span.trace_id = clio::CurrentTraceId();
    span.start_us = trace_start_us;
    span.dur_us = clio::TraceNowUs() - trace_start_us;
    span.op = op;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (op == DeviceOp::kBurn) {
    ++window_.burns;
    window_.burn_us.push_back(inside_us);
  } else {
    ++window_.read_passes;
    window_.blocks_read += blocks;
  }
  window_.busy_s += inside_us / 1e6;
  if (overshoot_us >= 0) {
    window_.overshoot_us.push_back(overshoot_us);
  }
  if (trace_start_us != 0) {
    window_.spans.push_back(span);
  }
}

DeviceWindow DeviceProbe::TakeWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  DeviceWindow out = std::move(window_);
  window_ = DeviceWindow{};
  return out;
}

clio::Status ChargedDevice::ReadBlock(uint64_t index,
                                      std::span<std::byte> out) {
  std::lock_guard<std::mutex> port(probe_->port());
  const uint64_t trace_start = TraceStartUs(probe_);
  const auto start = Clock::now();
  clio::Status status = media_->ReadBlock(index, out);
  probe_->Finish(DeviceOp::kRead, status.ok() ? 1 : 0, start, trace_start);
  return status;
}

clio::Result<uint64_t> ChargedDevice::ReadBlocks(uint64_t first,
                                                 uint64_t count,
                                                 std::span<std::byte> out) {
  std::lock_guard<std::mutex> port(probe_->port());
  const uint64_t trace_start = TraceStartUs(probe_);
  const auto start = Clock::now();
  clio::Result<uint64_t> read = media_->ReadBlocks(first, count, out);
  probe_->Finish(DeviceOp::kRead, read.ok() ? *read : 0, start, trace_start);
  return read;
}

clio::Result<uint64_t> ChargedDevice::AppendBlock(
    std::span<const std::byte> data) {
  std::lock_guard<std::mutex> port(probe_->port());
  const uint64_t trace_start = TraceStartUs(probe_);
  const auto start = Clock::now();
  clio::Result<uint64_t> burned = media_->AppendBlock(data);
  probe_->Finish(DeviceOp::kBurn, 0, start, trace_start);
  return burned;
}

}  // namespace perfbench
