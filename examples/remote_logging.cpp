// Client/server logging over loopback TCP (paper §3.2's configuration:
// client and log server as separate contexts, a synchronous request/reply
// round trip between them). Several concurrent clients share one log file;
// the server's group-commit batcher coalesces their forced appends so a
// burst of writers costs ~one force per batch rather than one per append.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/device/memory_worm_device.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"

namespace {

#define CHECK_OK(expr)                                             \
  do {                                                             \
    auto _st = (expr);                                             \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "FATAL: %s\n", _st.ToString().c_str()); \
      std::exit(1);                                                \
    }                                                              \
  } while (0)

}  // namespace

int main() {
  using namespace clio;

  MemoryWormOptions device_options;
  device_options.capacity_blocks = 1 << 16;
  RealTimeSource clock;
  auto service = LogService::Create(
      std::make_unique<MemoryWormDevice>(device_options), &clock, {});
  CHECK_OK(service.status());

  // Bind an ephemeral loopback port; hold forced appends up to 1 ms so
  // concurrent writers land in a shared commit.
  NetLogServerOptions server_options;
  server_options.batch.max_hold_us = 1000;
  auto server = NetLogServer::Start(service.value().get(), server_options);
  CHECK_OK(server.status());
  std::printf("log server listening on 127.0.0.1:%u\n", (*server)->port());

  {
    auto setup = NetLogClient::Connect((*server)->port());
    CHECK_OK(setup.status());
    CHECK_OK((*setup)->CreateLogFile("/events").status());
  }

  // Four writers, each its own connection, all forcing every append.
  const int kWriters = 4;
  const int kWritesEach = 25;
  auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = NetLogClient::Connect((*server)->port());
      CHECK_OK(client.status());
      for (int i = 0; i < kWritesEach; ++i) {
        std::string event =
            "writer" + std::to_string(w) + "-event" + std::to_string(i);
        CHECK_OK((*client)
                     ->Append("/events", AsBytes(event), /*timestamped=*/true,
                              /*force=*/true)
                     .status());
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - started)
                     .count();
  std::printf("%d forced writes from %d clients: %.2f ms each\n",
              kWriters * kWritesEach, kWriters,
              static_cast<double>(elapsed) / (kWriters * kWritesEach) /
                  1000.0);
  std::printf("group commit: %llu entries in %llu forces\n",
              static_cast<unsigned long long>(
                  (*server)->batcher()->entries_committed()),
              static_cast<unsigned long long>(
                  (*server)->batcher()->batches_committed()));

  // Read the newest entries back over a fresh connection.
  auto reader = NetLogClient::Connect((*server)->port());
  CHECK_OK(reader.status());
  auto handle = (*reader)->OpenReader("/events");
  CHECK_OK(handle.status());
  CHECK_OK((*reader)->SeekToEnd(*handle));
  std::printf("-- newest three events --\n");
  for (int i = 0; i < 3; ++i) {
    auto record = (*reader)->ReadPrev(*handle);
    CHECK_OK(record.status());
    std::printf("  %s (t=%lld)\n",
                ToString(record.value()->payload).c_str(),
                static_cast<long long>(record.value()->timestamp));
  }
  CHECK_OK((*reader)->CloseReader(*handle));

  (*server)->Stop();
  std::printf("remote_logging: OK\n");
  return 0;
}
