// Reproduces the paper's §3.2 log-writing measurements:
//
//   "The average time to write a 'null' log entry was 2.0 ms. For a 50-byte
//    log entry, the average time was 2.9 ms. Of these times, 0.5 ms-1 ms
//    were taken up by the basic synchronous client-server IPC (write)
//    operation. The cost of generating the timestamp was roughly 400 us.
//    The cost of maintaining and periodically logging entrymap information
//    ... was low: only about 70 us for each written log entry, on average."
//
// Configuration mirrors the paper: client and server in separate contexts
// joined by a synchronous request/reply transport, 1 KB blocks, N = 16,
// complete 14-byte timestamped headers, device writes asynchronous w.r.t.
// the client (no force). The transport is the service's own: a
// NetLogClient over loopback TCP to a NetLogServer, whose event loop hands
// each frame to a worker, the ServiceDispatcher and the append lane. The
// breakdown rows isolate each component the paper names; the round trip
// is the client-timed write minus the server-side append. Whether a
// 50-byte entry costs more than a null one is judged on the server-side
// append alone: the difference is a fraction of a microsecond, far below
// the round trip's jitter.
#include "bench/bench_util.h"

#include <cinttypes>

#include "src/net/net_client.h"
#include "src/net/net_server.h"

namespace clio {
namespace bench {
namespace {

int Writes() { return FastMode() ? 300 : 2000; }

// Null/50-byte pairs of in-process appends: enough that the mean
// difference, a fraction of a microsecond, stands clear of the noise in
// every run (fast mode included).
constexpr int kDirectPairs = 50'000;

double Mean(const std::vector<double>& samples) {
  double total = 0;
  for (double v : samples) {
    total += v;
  }
  return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

struct SizeSamples {
  std::vector<double> null_us;
  std::vector<double> fifty_us;
};

// Times `count` appends of each size through `append`, alternating the
// two so both series see the same warm-up, drift and scheduler noise
// (timed one series after the other, the first ran slower in every run).
template <typename AppendFn>
SizeSamples TimeAlternating(int count, AppendFn append) {
  Rng rng(1);
  const Bytes null_payload;
  const Bytes fifty = FillPayload(&rng, 50);
  SizeSamples out;
  out.null_us.reserve(count);
  out.fifty_us.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    append(null_payload);
    out.null_us.push_back(UsSince(t0));
    t0 = std::chrono::steady_clock::now();
    append(fifty);
    out.fifty_us.push_back(UsSince(t0));
  }
  return out;
}

// Client appends over the wire, to /null and /fifty.
SizeSamples TimeClientAppends(LogClientBase* client, int count) {
  return TimeAlternating(count, [&](const Bytes& payload) {
    BENCH_CHECK_OK(client->Append(payload.empty() ? "/null" : "/fifty",
                                  payload, /*timestamped=*/true)
                       .status());
  });
}

// In-process appends to /direct, without the round trip.
SizeSamples TimeDirectAppends(LogService* service, int count) {
  WriteOptions opts;
  opts.timestamped = true;
  return TimeAlternating(count, [&](const Bytes& payload) {
    BENCH_CHECK_OK(service->Append("/direct", payload, opts).status());
  });
}

void Run() {
  const int kWrites = Writes();
  PrintHeader("Section 3.2: log writing cost breakdown",
              "paper section 3.2 measurements");

  auto b = BenchService::Make(/*block_size=*/1024,
                              /*capacity_blocks=*/1 << 18,
                              /*degree=*/16, /*cache_blocks=*/4096);
  BENCH_CHECK_OK(b.service->CreateLogFile("/null").status());
  BENCH_CHECK_OK(b.service->CreateLogFile("/fifty").status());
  BENCH_CHECK_OK(b.service->CreateLogFile("/direct").status());

  // Client writes over the wire; the files above exist before the server
  // starts, so its view knows them.
  auto server = NetLogServer::Start(b.service.get());
  BENCH_CHECK_OK(server.status());
  auto client = NetLogClient::Connect((*server)->port());
  BENCH_CHECK_OK(client.status());

  // Untimed warm-up: the first requests of a connection pay for waking
  // the server's threads and faulting in their stacks and buffers.
  (void)TimeClientAppends(client->get(), kWrites / 4);
  const SizeSamples wire = TimeClientAppends(client->get(), kWrites);
  double null_us = Mean(wire.null_us);
  double fifty_us = Mean(wire.fifty_us);
  (*client)->Disconnect();
  (*server)->Stop();

  // Server-side costs without the round trip.
  const SizeSamples direct =
      TimeDirectAppends(b.service.get(), kDirectPairs);
  double direct_null_us = Mean(direct.null_us);
  double direct_fifty_us = Mean(direct.fifty_us);

  // Timestamp generation cost in isolation.
  auto start = std::chrono::steady_clock::now();
  Timestamp sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink ^= b.clock->NowUnique();
  }
  double ts_us = UsSince(start) / 100000;
  (void)sink;

  // Entrymap upkeep: total emission events vs entries written, and the
  // marginal cost measured by comparing N=16 against a degree so large
  // that no entrymap entry is ever emitted at this volume size.
  auto no_entrymap = BenchService::Make(1024, 1 << 18, /*degree=*/1024,
                                        4096);
  BENCH_CHECK_OK(no_entrymap.service->CreateLogFile("/direct").status());
  double bare_us = Mean(
      TimeDirectAppends(no_entrymap.service.get(), kDirectPairs)
          .fifty_us);
  double entrymap_us = direct_fifty_us > bare_us
                           ? direct_fifty_us - bare_us
                           : 0.0;

  std::printf("%-44s | %-12s | %s\n", "quantity", "measured", "paper");
  std::printf("---------------------------------------------+------------"
              "--+----------\n");
  std::printf("%-44s | %9.1f us | 2000 us\n",
              "null entry write, via client round trip", null_us);
  std::printf("%-44s | %9.1f us | 2900 us\n",
              "50-byte entry write, via client round trip", fifty_us);
  std::printf("%-44s | %9.1f us | 500-1000 us\n",
              "of which: round trip (paper: IPC)", null_us - direct_null_us);
  std::printf("%-44s | %9.3f us | ~400 us\n",
              "timestamp generation (per call)", ts_us);
  std::printf("%-44s | %9.1f us | n/a\n",
              "server-side null entry append", direct_null_us);
  std::printf("%-44s | %9.1f us | n/a\n",
              "server-side 50-byte entry append", direct_fifty_us);
  std::printf("%-44s | %9.2f us | ~70 us\n",
              "entrymap maintenance per entry (marginal)", entrymap_us);

  std::printf("\nShape check (paper's conclusions):\n");
  std::printf("  - 50-byte append costs more than null append:      %s\n",
              direct_fifty_us > direct_null_us ? "yes" : "NO");
  std::printf("  - the round trip dominates the synchronous write:  %s\n",
              (null_us - direct_null_us) > direct_null_us ? "yes" : "NO");
  std::printf("  - entrymap upkeep is small vs total server cost:   %s\n",
              entrymap_us < direct_fifty_us ? "yes" : "NO");

  BenchReport report("write_latency");
  report.AddSamples("wire_null_append", wire.null_us);
  report.AddSamples("wire_50b_append", wire.fifty_us);
  report.AddSamples("direct_null_append", direct.null_us);
  report.AddSamples("direct_50b_append", direct.fifty_us);
  report.AddMean("timestamp", 100000, ts_us);
  report.AddMean("entrymap_marginal", kDirectPairs, entrymap_us);
  if (!report.Write()) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace clio

int main() {
  clio::bench::Run();
  return 0;
}
