// Connection-scaling soak: append latency under many idle connections.
//
// The event-loop refactor's (DESIGN.md §16) claim is that connection
// COUNT is no longer a cost: a thousand idle sessions occupy epoll
// entries, not threads, and the hot sessions' latency does not care. This
// bench measures exactly that, two ways:
//
//   event_hot        64 hot unforced committers
//   event_idle_hot   the same 64, plus 1000 idle connections parked on
//                    the same loop (none of them idle-closed: the server
//                    runs with the idle timeout off)
//
// Reported per cell: per-append p50/p90/p99 latency and aggregate
// appends/sec. One summary counter gates CI (bench-soak job, with
// --ceiling vs bench/baseline.json):
//
//   idle_latency_ratio_p99  event_idle_hot / event_hot p99 (idle
//                           connections must not tax the hot path)
//
// After the hot phase of the idle cell, a sampled idle connection must
// still answer a request — proof the soak did not quietly shed sessions.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/frame.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/obs/trace.h"

namespace clio {
namespace bench {
namespace {

constexpr size_t kPayloadBytes = 256;

int HotClients() { return FastMode() ? 16 : 64; }
int AppendsPerClient() { return FastMode() ? 100 : 300; }

// Idle-connection target, clamped so the bench never trips the fd limit:
// each connection costs two descriptors (client + server end live in this
// process), and everything else needs headroom.
size_t IdleSessions() {
  size_t target = FastMode() ? 128 : 1000;
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur != RLIM_INFINITY) {
    size_t budget = lim.rlim_cur > 512 ? (lim.rlim_cur - 512) / 2 : 0;
    if (budget < target) {
      std::fprintf(stderr,
                   "soak: RLIMIT_NOFILE %llu clamps idle sessions "
                   "%zu -> %zu\n",
                   static_cast<unsigned long long>(lim.rlim_cur), target,
                   budget);
      target = budget;
    }
  }
  return target;
}

struct CellResult {
  std::vector<double> samples;  // per-append latencies, microseconds
  double appends_per_sec = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  size_t idle_alive = 0;  // idle connections that still answered afterwards
};

// One soak cell: `idle` parked connections plus `clients` hot committers
// issuing unforced appends as fast as the server answers.
CellResult RunCell(size_t idle) {
  const int kClients = HotClients();
  const int kAppends = AppendsPerClient();
  BenchService b = BenchService::Make(/*block_size=*/1024,
                                      /*capacity_blocks=*/1 << 16,
                                      /*degree=*/16, /*cache_blocks=*/4096);
  NetLogServerOptions options;
  options.idle_timeout_ms = 0;  // parked connections must survive the soak
  auto server = NetLogServer::Start(b.service.get(), options);
  BENCH_CHECK_OK(server.status());

  {
    auto setup = NetLogClient::Connect((*server)->port());
    BENCH_CHECK_OK(setup.status());
    BENCH_CHECK_OK((*setup)->CreateLogFile("/soak").status());
  }

  std::vector<TcpSocket> parked;
  parked.reserve(idle);
  for (size_t i = 0; i < idle; ++i) {
    auto socket = TcpSocket::ConnectLoopback((*server)->port());
    BENCH_CHECK_OK(socket.status());
    parked.push_back(std::move(socket).value());
  }

  std::vector<std::vector<double>> latencies(kClients);
  std::vector<std::thread> threads;
  auto started = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = NetLogClient::Connect((*server)->port());
      BENCH_CHECK_OK(client.status());
      Bytes payload(kPayloadBytes, std::byte{static_cast<uint8_t>('a' + c)});
      latencies[c].reserve(kAppends);
      for (int i = 0; i < kAppends; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        BENCH_CHECK_OK((*client)->Append("/soak", payload).status());
        latencies[c].push_back(UsSince(t0));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  double elapsed_us = UsSince(started);

  CellResult result;
  // Sample every 64th parked connection: each must still answer a request
  // after sitting through the whole hot phase.
  for (size_t i = 0; i < parked.size(); i += 64) {
    FrameHeader ping;
    ping.op = static_cast<uint32_t>(LogOp::kStats);
    ping.request_id = 1;
    Bytes wire = EncodeFrame(ping, {});
    if (!parked[i].WriteAll(wire).ok()) {
      continue;
    }
    Bytes prefix(kFrameHeaderSize);
    auto n = parked[i].ReadFull(prefix);
    if (!n.ok() || *n != kFrameHeaderSize) {
      continue;
    }
    auto header = DecodeFramePrefix(prefix);
    if (!header.ok()) {
      continue;
    }
    Bytes rest(FrameExtensionSize(header->version) + header->body_size);
    auto m = parked[i].ReadFull(rest);
    if (!m.ok() || *m != rest.size()) {
      continue;
    }
    ++result.idle_alive;
  }

  for (auto& per_client : latencies) {
    result.samples.insert(result.samples.end(), per_client.begin(),
                          per_client.end());
  }
  result.appends_per_sec = result.samples.size() / (elapsed_us / 1e6);
  result.p50_us = SamplePercentile(result.samples, 0.50);
  result.p90_us = SamplePercentile(result.samples, 0.90);
  result.p99_us = SamplePercentile(result.samples, 0.99);
  (*server)->Stop();
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  using namespace clio::bench;

  const size_t idle = IdleSessions();
  PrintHeader("Connection-scaling soak: idle connections vs hot-path latency",
              "DESIGN.md §16 / ISSUE 8 acceptance");
  std::printf("(%d hot clients x %d unforced %zu-byte appends; idle cell "
              "parks %zu extra connections)\n\n",
              HotClients(), AppendsPerClient(), kPayloadBytes, idle);
  std::printf("%16s  %10s  %10s  %10s  %10s\n", "cell", "appends/s",
              "p50 (us)", "p90 (us)", "p99 (us)");

  struct Cell {
    const char* slug;
    size_t idle;
  };
  const Cell cells[] = {
      {"event_hot", 0},
      {"event_idle_hot", idle},
  };

  BenchReport report("soak_latency");
  double event_p99 = 0, idle_p99 = 0;
  for (const Cell& cell : cells) {
    CellResult r = RunCell(cell.idle);
    std::printf("%16s  %10.0f  %10.1f  %10.1f  %10.1f\n", cell.slug,
                r.appends_per_sec, r.p50_us, r.p90_us, r.p99_us);
    report.AddSamples(cell.slug, r.samples);
    report.AddCounter(cell.slug, "appends_per_sec", r.appends_per_sec);
    if (cell.idle > 0) {
      report.AddCounter(cell.slug, "idle_sessions",
                        static_cast<double>(cell.idle));
      report.AddCounter(cell.slug, "idle_alive_samples",
                        static_cast<double>(r.idle_alive));
      idle_p99 = r.p99_us;
      std::printf("%16s  idle connections still answering: %zu sampled\n",
                  "", r.idle_alive);
    } else {
      event_p99 = r.p99_us;
    }
  }

  double idle_tax = event_p99 > 0 ? idle_p99 / event_p99 : 0;
  std::printf("\np99 with %zu idle connections vs without: %.2fx %s\n", idle,
              idle_tax, idle_tax <= 1.5 ? "(<= 1.5x: PASS)" : "(> 1.5x)");
  report.AddCounter("summary", "idle_latency_ratio_p99", idle_tax);

  if (!report.Write()) {
    return 1;
  }

  // Chrome trace export for the CI artifact, same as bench_net_throughput.
  std::string dir = ".";
  if (const char* env = std::getenv("CLIO_BENCH_JSON_DIR")) {
    if (env[0] != '\0') {
      dir = env;
    }
  }
  std::string trace_path = dir + "/TRACE_soak_latency.json";
  clio::TraceDump dump = clio::FlightRecorder::Instance().Collect();
  std::string trace_json = clio::TraceDumpToChromeJson(dump);
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    std::fwrite(trace_json.data(), 1, trace_json.size(), f);
    std::fclose(f);
    std::printf("TRACE JSON: %s (%zu spans)\n", trace_path.c_str(),
                dump.spans.size());
  }
  return 0;
}
