// Shared pieces of the Clio benchmark: run arguments, the metric sheet a
// run fills in, sample statistics, and the self-checking payload format.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Device cost model shared by every workload (README.md, "Device model").
constexpr uint64_t kBurnChargeUs = 500;  // per AppendBlock
constexpr uint64_t kReadChargeUs = 100;  // per ReadBlock / ReadBlocks call

// Aggregate offered rate of the mixed workload's open-loop writers: about
// half of what the group-commit batcher sustains when arrivals do not share
// a batch (one hold window plus one burn each, ~870/s on the reference
// host). README.md explains the choice. BENCHMARK.json states the same
// number in the workload's description.
constexpr double kMixedCommitsPerS = 400.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Shrinks every size so a run takes about a second (the self-test).
  bool tiny = false;
  std::string source_rev = "unknown";
};

// Size knobs; Full() is what the recorded numbers use.
struct Scale {
  int setups;                   // set-ups per run; setup_s is their median
  uint64_t warmup_appends;      // per commit connection, inside set-up
  size_t scan_cache_blocks;     // LogServiceOptions::cache_blocks on scan
  uint64_t scan_target_blocks;  // scan volume size, >= 8x the cache
  size_t scan_files;
  uint64_t mixed_prefill;       // entries per writer file before the run
  uint64_t mixed_window;        // newest entries a mixed reader re-reads

  static Scale Full() { return {3, 100, 4096, 8 * 4096 + 128, 256, 2000, 1000}; }
  static Scale Tiny() { return {1, 5, 256, 8 * 256 + 128, 64, 200, 100}; }
};

// Returns at `deadline`, not before and as little after as it can: sleeps
// to just short of it, then spins. A sleeper can wake late by milliseconds
// on a busy host, so exact charges use SpinUntil instead.
void WaitUntil(Clock::time_point deadline);
// Busy-waits until `deadline`.
void SpinUntil(Clock::time_point deadline);

double Seconds(Clock::duration d);
double Micros(Clock::duration d);

// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
// Sorts `v` in place.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// Every number a run reports, by name, with its unit. Names stay in
// insertion order so the printed report reads like the README's tables.
class Sheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  // "metric <name> <value> <unit>" lines, then nothing else.
  void Print() const;
  // {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Counters and histograms over one measured window: the difference of two
// registry snapshots (taken with NetLogClient::GetStats).
class StatsDelta {
 public:
  StatsDelta(clio::StatsSnapshot before, clio::StatsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  uint64_t Count(const std::string& name) const;
  // Bucket-wise difference; max is the later snapshot's running max.
  clio::HistogramSnapshot Hist(const std::string& name) const;

 private:
  clio::StatsSnapshot before_;
  clio::StatsSnapshot after_;
};

double Ratio(double num, double den);

// Payloads carry their own identity so any reader can check them: bytes
// 0-3 the stream (writer or file number), 4-11 the stream-local sequence
// number, the rest a filler derived from (seed, stream, seq).
clio::Bytes MakePayload(uint64_t seed, uint32_t stream, uint64_t seq,
                        size_t size);
// True when `payload` is exactly MakePayload(seed, *stream, *seq, size).
bool CheckPayload(uint64_t seed, std::span<const std::byte> payload,
                  uint32_t* stream, uint64_t* seq);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Host CPU time so far, in clock ticks: all of it, and the part the
// hypervisor took from this VM ("steal"). Zeros where /proc/stat is absent.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
