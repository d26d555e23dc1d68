// Fault-injecting decorator over any WormDevice.
//
// Models the failure classes of paper §2.3: a crash or software bug may
// cause garbage to be written to the log volume — most likely to blocks
// beyond the current end (wild appends), more rarely over previously
// written blocks. Beyond the probabilistic faults, the decorator supports
// deterministic crash-point schedules (power cut after N appends, with an
// optional torn final burn), torn/partial block writes, transient read
// failures, and a QueryEnd that under-reports the written end — the exact
// lies the recovery path (§2.3.1) must absorb. Every fault draw comes from
// one seeded Rng, so a (policy, seed) pair replays the same schedule.
//
// The decorator wraps ANY WormDevice: an in-memory device, a file-backed
// device surviving process restarts, or a borrowed view of either. When
// the base happens to be a MemoryWormDevice, wild writes use its Scribble
// hook (leaving the richer kScribbled block state); otherwise garbage is
// burned through the ordinary append path, which is indistinguishable to
// higher layers — the device cannot tell garbage from data (§2.3.2).
#ifndef SRC_DEVICE_FAULT_INJECTION_H_
#define SRC_DEVICE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "src/device/block_device.h"
#include "src/device/memory_worm_device.h"
#include "src/util/rng.h"

namespace clio {

struct FaultPolicy {
  // Per-append probability (numerator over 1000) that the append instead
  // deposits garbage in the target block and reports failure.
  uint32_t garbage_append_per_mille = 0;
  // Per-append probability that the stored payload is silently bit-flipped
  // (the append "succeeds" but the media lies).
  uint32_t silent_corruption_per_mille = 0;
  // Per-append probability of a torn burn: a prefix of the image lands in
  // the block, the rest is garbage, and the append reports failure — a
  // power cut in the middle of a physical burn.
  uint32_t torn_append_per_mille = 0;
  // Per-read probability of a transient kUnavailable failure.
  uint32_t transient_read_failure_per_mille = 0;
  // Per-read probability that the read "succeeds" but one bit of the
  // returned buffer is flipped — a soft error in the read path (the media
  // itself is intact; a retry would return clean bytes).
  uint32_t read_bit_flip_per_mille = 0;
  // Per-append probability that, after a successful burn, one bit of the
  // block ON the media flips — silent rot a later scrub pass must catch.
  // Requires an in-memory base (the flip rewrites stored bytes); on other
  // bases the knob is inert.
  uint32_t media_bit_flip_per_mille = 0;
  // Per-query probability that QueryEnd under-reports the end by 1..8
  // blocks. Recovery must re-probe past the reported end (§2.3.1).
  uint32_t query_end_lies_per_mille = 0;
  // Fixed latency added to every append that reaches the media (a slow
  // burn — degraded platter, long seek). Unlike the fault knobs above the
  // append still succeeds; this exists to make requests SLOW rather than
  // broken, so tracing tests can inject a latency and watch it surface in
  // the burn span.
  uint64_t append_latency_us = 0;
  // Crash-point schedule: after this many successful appends, the device
  // powers off — every subsequent operation fails with kUnavailable until
  // Revive(). 0 disables the schedule.
  uint64_t power_cut_after_appends = 0;
  // Whether the append that trips the power cut leaves a torn block
  // behind (a burn interrupted by the cut) or fails without a trace.
  bool torn_write_at_power_cut = true;
};

class FaultInjectingWormDevice : public WormDevice {
 public:
  FaultInjectingWormDevice(std::unique_ptr<WormDevice> base,
                           const FaultPolicy& policy, uint64_t seed)
      : base_(std::move(base)),
        mem_base_(dynamic_cast<MemoryWormDevice*>(base_.get())),
        policy_(policy),
        rng_(seed) {}

  uint32_t block_size() const override { return base_->block_size(); }
  uint64_t capacity_blocks() const override {
    return base_->capacity_blocks();
  }

  Status ReadBlock(uint64_t index, std::span<std::byte> out) override;
  Result<uint64_t> AppendBlock(std::span<const std::byte> data) override;
  Status InvalidateBlock(uint64_t index) override;
  Result<uint64_t> QueryEnd() override;
  WormBlockState BlockState(uint64_t index) const override {
    return base_->BlockState(index);
  }
  bool serves_one_call_at_a_time() const override {
    return base_->serves_one_call_at_a_time();
  }

  // Reported stats are the base device's counters plus the operations the
  // injector failed before they reached the base (so injected faults are
  // visible in DeviceStats, not silently absorbed by the decorator).
  const DeviceStats& stats() const override;
  void ResetStats() override;

  WormDevice* base() { return base_.get(); }

  // Swaps the fault policy, e.g. to fail reads only after a clean
  // recovery. Call while no operation is in flight.
  void set_policy(const FaultPolicy& policy) { policy_ = policy; }

  // Deterministically flips one bit of an already-burned block on the
  // media — the scrub tests' precision instrument (the per-mille knobs are
  // for chaos volume). Requires an in-memory base; the flipped block still
  // reads (as scribbled bytes), it just no longer checksums.
  Status FlipBitOnMedia(uint64_t index, uint64_t bit_index);

  // Powers the device back on after a scheduled cut and re-arms the
  // schedule (the next power_cut_after_appends successful appends trip it
  // again).
  void Revive();
  bool powered_off() const { return powered_off_.load(); }

  uint64_t injected_garbage_appends() const { return garbage_appends_; }
  uint64_t injected_corruptions() const { return corruptions_; }
  uint64_t injected_torn_appends() const { return torn_appends_; }
  uint64_t injected_read_failures() const { return read_failures_; }
  uint64_t injected_read_bit_flips() const { return read_bit_flips_; }
  uint64_t injected_media_bit_flips() const { return media_bit_flips_; }
  uint64_t injected_query_end_lies() const { return query_end_lies_; }
  uint64_t power_cuts() const { return power_cuts_.load(); }

 private:
  Status DeadOp(std::atomic<uint64_t>* op_counter);
  Bytes GarbageBlock();

  std::unique_ptr<WormDevice> base_;
  MemoryWormDevice* const mem_base_;  // non-null iff base is in-memory
  FaultPolicy policy_;
  Rng rng_;
  std::atomic<bool> powered_off_{false};
  // Atomic so a supervising thread may Revive() while an append is in
  // flight on the service thread (the chaos harness does exactly this).
  std::atomic<uint64_t> appends_since_revive_{0};
  uint64_t garbage_appends_ = 0;
  uint64_t corruptions_ = 0;
  uint64_t torn_appends_ = 0;
  uint64_t read_failures_ = 0;
  uint64_t read_bit_flips_ = 0;
  uint64_t media_bit_flips_ = 0;
  uint64_t query_end_lies_ = 0;
  std::atomic<uint64_t> power_cuts_{0};
  // Ops failed at the injector, folded into stats(); reset by ResetStats.
  DeviceStats injected_;
  mutable DeviceStats merged_;  // scratch for stats()
};

}  // namespace clio

#endif  // SRC_DEVICE_FAULT_INJECTION_H_
