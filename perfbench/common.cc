#include "perfbench/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

namespace {

// Sleeping closer to a deadline than this risks waking late (timer slack
// and wake-up latency); the remainder is spun.
constexpr auto kSpinMargin = std::chrono::microseconds(120);

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

void SpinUntil(Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    CpuRelax();
  }
}

void WaitUntil(Clock::time_point deadline) {
  if (deadline - Clock::now() > kSpinMargin) {
    std::this_thread::sleep_until(deadline - kSpinMargin);
  }
  SpinUntil(deadline);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

void Sheet::Set(const std::string& name, double value,
                const std::string& unit) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  if (values_.find(name) == values_.end()) {
    order_.push_back(name);
  }
  values_[name] = {value, unit};
}

double Sheet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.first;
}

void Sheet::Print() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("metric %-44s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Sheet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + order_[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

uint64_t StatsDelta::Count(const std::string& name) const {
  const uint64_t a = after_.counter(name);
  const uint64_t b = before_.counter(name);
  return a >= b ? a - b : 0;
}

clio::HistogramSnapshot StatsDelta::Hist(const std::string& name) const {
  clio::HistogramSnapshot out;
  auto after = after_.histogram(name);
  if (!after.has_value()) {
    return out;
  }
  out = *after;
  if (auto before = before_.histogram(name)) {
    out.count = 0;
    for (size_t i = 0; i < clio::Histogram::kBucketCount; ++i) {
      out.buckets[i] -= std::min(out.buckets[i], before->buckets[i]);
      out.count += out.buckets[i];
    }
    out.sum -= std::min(out.sum, before->sum);
  }
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr size_t kIdentityBytes = 12;

void Fill(uint64_t seed, uint32_t stream, uint64_t seq,
          std::span<std::byte> out) {
  uint64_t state = Mix(seed ^ Mix((uint64_t{stream} << 40) ^ seq));
  for (size_t i = 0; i < out.size(); i += 8) {
    state = Mix(state);
    std::memcpy(out.data() + i, &state, std::min<size_t>(8, out.size() - i));
  }
}

}  // namespace

clio::Bytes MakePayload(uint64_t seed, uint32_t stream, uint64_t seq,
                        size_t size) {
  clio::Bytes out(std::max(size, kIdentityBytes));
  std::memcpy(out.data(), &stream, 4);
  std::memcpy(out.data() + 4, &seq, 8);
  Fill(seed, stream, seq, std::span(out).subspan(kIdentityBytes));
  return out;
}

bool CheckPayload(uint64_t seed, std::span<const std::byte> payload,
                  uint32_t* stream, uint64_t* seq) {
  if (payload.size() < kIdentityBytes) {
    return false;
  }
  std::memcpy(stream, payload.data(), 4);
  std::memcpy(seq, payload.data() + 4, 8);
  const clio::Bytes expect = MakePayload(seed, *stream, *seq, payload.size());
  return std::equal(payload.begin(), payload.end(), expect.begin());
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return ticks;
  }
  // cpu user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      ticks.total += x;
    }
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
