// Deterministic chaos harness: crash-restart loops under concurrent load.
//
// One shared WORM medium, one supervisor. Each iteration serves traffic
// for a short window under a seeded fault policy (rotating: clean kill,
// garbage/torn burns with QueryEnd lies, power-cut schedules), then kills
// the server incarnation — the LogService and its staging buffer die with
// it; only the media, the clock, and the supervisor's dedup index survive.
// Concurrent writer clients ride through every crash on their own retry
// machinery; a reader client tails the log across restarts.
//
// After every kill the supervisor audits the media offline with a clean
// recovery (§2.3.1) and asserts the invariants the whole fault-tolerance
// stack exists to uphold:
//  - VerifyVolume is clean: framing, entrymap, fragment chains, and the
//    timestamp total order all survived;
//  - every append acknowledged to a client so far is present EXACTLY once
//    (no duplicates from retries, no losses of acked-durable entries);
//  - no payload appears twice at all (retry + dedup never double-log);
//  - each client's entries appear in its own append order.
//
// Everything is seeded: (policy, seed) pairs replay identical fault
// schedules, so a failure here reproduces.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/index/extent_index.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/partition/partitioned_service.h"
#include "src/scrub/scrubber.h"
#include "tests/test_util.h"

namespace clio {
namespace {

constexpr char kLog[] = "/chaos";
constexpr int kWriters = 3;
// Crash-restart iterations (the ISSUE floor is 20). Nightly CI stretches
// this through CLIO_CHAOS_ITERATIONS (see tests/test_util.h).
const int kIterations = clio::testing::ChaosIterations(24);
constexpr uint64_t kSeedBase = 0xC4405;

// Acknowledged-append journal shared by the writer threads: a payload is
// recorded only after its forced append returned OK, i.e. after the
// server promised durability. The audit asserts this set against the log.
class AckJournal {
 public:
  void Record(std::string payload) {
    std::lock_guard<std::mutex> lock(mu_);
    acked_.push_back(std::move(payload));
  }
  std::vector<std::string> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> acked_;
};

FaultPolicy CleanPolicy() { return FaultPolicy{}; }

// Finds a readable burned block all of whose entries belong to `id` (a
// pure data block, not an entrymap/catalog block). 0 if none. Reads the
// volume raw: the caller holds a WriteHandle.
uint64_t FindDataBlockOf(LogService* service, LogFileId id) {
  LogVolume* volume = service->current_volume();
  for (uint64_t b = 1; b < volume->end_block(); ++b) {
    OpStats op;
    auto parsed = volume->GetBlock(b, &op);
    if (!parsed.ok() || parsed->entries().empty()) {
      continue;
    }
    bool all_ours = true;
    for (const ParsedEntry& e : parsed->entries()) {
      if (e.logfile_id != id) {
        all_ours = false;
        break;
      }
    }
    if (all_ours) {
      return b;
    }
  }
  return 0;
}

// Write-side mayhem: failed burns depositing garbage, torn burns leaving
// prefix+garbage blocks, and a QueryEnd that under-reports — recovery must
// probe past the lie (§2.3.1) and invalidate the debris.
FaultPolicy FlakyMediaPolicy() {
  FaultPolicy policy;
  policy.garbage_append_per_mille = 60;
  policy.torn_append_per_mille = 60;
  policy.query_end_lies_per_mille = 100;
  return policy;
}

// Scheduled power cuts: after every N successful burns the device goes
// dark (all ops kUnavailable) until the supervisor revives it, with the
// interrupting burn torn. Exercises failed batch forces and the
// staged-not-durable dedup state.
FaultPolicy PowerCutPolicy() {
  FaultPolicy policy;
  // A power-cut generation serves until the cut has tripped
  // (ServeGeneration); a low count keeps that wait short when
  // instrumentation (TSan) slows the append rate to a crawl.
  policy.power_cut_after_appends = 6;
  policy.torn_write_at_power_cut = true;
  return policy;
}

// Serves one generation for at least 40 ms, reviving every injector whose
// scheduled power cut trips. A power-cut generation serves on until its
// cut has tripped and been revived, so a slow (sanitized) build cannot end
// the window before the cut; the cap only bounds a generation that never
// trips, which the caller then reports. Returns the revives.
uint64_t ServeGeneration(
    const std::vector<FaultInjectingWormDevice*>& injectors,
    bool await_power_cut) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t revives = 0;
  for (;;) {
    const auto served = std::chrono::steady_clock::now() - start;
    if (served >= std::chrono::seconds(20) ||
        (served >= std::chrono::milliseconds(40) &&
         (!await_power_cut || revives > 0))) {
      return revives;
    }
    for (FaultInjectingWormDevice* injector : injectors) {
      if (injector != nullptr && injector->powered_off()) {
        injector->Revive();
        ++revives;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryWormOptions dev_options;
    dev_options.block_size = 1024;
    dev_options.capacity_blocks = 32768;
    media_ = std::make_unique<MemoryWormDevice>(dev_options);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  LogServiceOptions ServiceOptions() {
    LogServiceOptions options;
    options.sequence_id = 0xC4A0;
    return options;
  }

  // Brings up one server incarnation over a fresh fault injector wrapping
  // the shared media. The first generation creates the volume; later ones
  // re-run crash recovery on whatever the previous incarnation left.
  void StartGeneration(const FaultPolicy& policy, uint64_t seed,
                       bool scrub = false) {
    auto injector = std::make_unique<FaultInjectingWormDevice>(
        std::make_unique<BorrowedDevice>(media_.get()), policy,
        seed);
    injector_ = injector.get();
    if (!created_) {
      auto service = LogService::Create(std::move(injector), &clock_,
                                        ServiceOptions());
      ASSERT_OK(service.status());
      service_ = std::move(service).value();
      ASSERT_OK(service_->CreateLogFile(kLog).status());
      created_ = true;
    } else {
      std::vector<std::unique_ptr<WormDevice>> devices;
      devices.push_back(std::move(injector));
      RecoveryReport report;
      auto service = LogService::Recover(std::move(devices), &clock_,
                                         ServiceOptions(), &report);
      ASSERT_OK(service.status());
      service_ = std::move(service).value();
    }
    NetLogServerOptions options;
    options.port = port_;  // first generation: 0 = pick; then reuse
    options.dedup = {&dedup_};
    options.batch.max_hold_us = 200;
    options.scrub = scrub;
    options.scrub_options.interval_ms = 1;
    options.scrub_options.blocks_per_tick = 256;
    options.scrub_options.max_busy_yields = 1;
    auto server = NetLogServer::Start(service_.get(), options);
    ASSERT_OK(server.status());
    server_ = std::move(server).value();
    port_ = server_->port();
  }

  // The crash: the server drains its in-flight requests and dies, taking
  // the LogService — and with it every staged-but-unforced byte — along.
  // The supervisor then forgets dedup entries that died in that buffer.
  void KillServer() {
    server_->Stop();
    server_.reset();
    service_.reset();
    injector_ = nullptr;
    dedup_.DropNonDurable();
  }

  // Offline audit over the bare media (no injector): recover, verify, and
  // scan the whole log against the acked journal. Destroys its service
  // before returning, leaving the media ready for the next generation.
  void AuditMedia(const std::vector<std::string>& acked, int iteration) {
    SCOPED_TRACE("audit after iteration " + std::to_string(iteration));
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(media_.get()));
    RecoveryReport recovery;
    auto service = LogService::Recover(std::move(devices), &clock_,
                                       ServiceOptions(), &recovery);
    ASSERT_OK(service.status());

    ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                         VerifyVolume((*service)->current_volume()));
    EXPECT_TRUE(verify.clean())
        << "missing_bits=" << verify.missing_bits.size()
        << " broken_chains=" << verify.broken_chains.size()
        << " time_regressions=" << verify.time_regressions.size()
        << " blocks_corrupt=" << verify.blocks_corrupt
        << " chain_mismatches=" << verify.chain_mismatches.size()
        << (verify.chain_mismatches.empty()
                ? ""
                : " first=" + verify.chain_mismatches.front());

    // Full scan: count payload multiplicity, check the timestamp total
    // order and each writer's per-client append order.
    ASSERT_OK_AND_ASSIGN(auto reader, (*service)->OpenReader(kLog));
    std::map<std::string, int> multiplicity;
    std::vector<int64_t> last_seq(kWriters, -1);
    Timestamp previous = 0;
    for (;;) {
      ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
      if (!record.has_value()) {
        break;
      }
      std::string payload = ToString(record->payload);
      ++multiplicity[payload];
      EXPECT_GE(record->timestamp, previous) << "at " << payload;
      previous = record->timestamp;
      // Payloads are "c<writer>-<seq>".
      ASSERT_EQ(payload[0], 'c');
      size_t dash = payload.find('-');
      ASSERT_NE(dash, std::string::npos);
      int writer = std::stoi(payload.substr(1, dash - 1));
      int64_t seq = std::stoll(payload.substr(dash + 1));
      ASSERT_LT(writer, kWriters);
      EXPECT_GT(seq, last_seq[writer])
          << "writer " << writer << " out of order at " << payload;
      last_seq[writer] = seq;
    }
    for (const auto& [payload, count] : multiplicity) {
      EXPECT_EQ(count, 1) << payload << " duplicated";
    }
    for (const std::string& payload : acked) {
      auto it = multiplicity.find(payload);
      EXPECT_TRUE(it != multiplicity.end())
          << "acked " << payload << " lost";
    }
  }

  SimulatedClock clock_{1'000'000, /*auto_tick=*/7};
  AppendDedupIndex dedup_;  // supervisor state: outlives every incarnation
  std::unique_ptr<MemoryWormDevice> media_;
  std::unique_ptr<LogService> service_;
  std::unique_ptr<NetLogServer> server_;
  FaultInjectingWormDevice* injector_ = nullptr;
  uint16_t port_ = 0;
  bool created_ = false;
};

// A writer appends "c<id>-<seq>" forever, recording every ack. A failed
// append (retry budget exhausted during a long outage) abandons that
// sequence number — retrying it under a FRESH stamp could double-log if
// the first attempt was secretly staged, which is exactly what the stamp
// made safe, so the abandoned payload is simply allowed to be absent.
void WriterLoop(uint16_t port, std::string path, int id,
                const std::atomic<bool>* stop, AckJournal* journal,
                std::atomic<uint64_t>* failures) {
  NetClientOptions options;
  options.retry.max_attempts = 60;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 40;
  auto client = NetLogClient::Connect(port, options);
  if (!client.ok()) {
    ADD_FAILURE() << "writer " << id << " never connected: "
                  << client.status().message();
    return;
  }
  uint64_t seq = 0;
  while (!stop->load()) {
    std::string payload =
        "c" + std::to_string(id) + "-" + std::to_string(seq);
    auto result = (*client)->Append(path, AsBytes(payload), true, true);
    if (result.ok()) {
      journal->Record(payload);
    } else {
      failures->fetch_add(1);
    }
    ++seq;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// A reader tails the log across crashes on a virtualized handle. It only
// has to keep making progress without wedging or erroring permanently —
// ordering is audited offline.
void ReaderLoop(uint16_t port, std::string path,
                const std::atomic<bool>* stop,
                std::atomic<uint64_t>* entries_read) {
  NetClientOptions options;
  options.retry.max_attempts = 60;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 40;
  auto client = NetLogClient::Connect(port, options);
  if (!client.ok()) {
    ADD_FAILURE() << "reader never connected: " << client.status().message();
    return;
  }
  auto handle = (*client)->OpenReader(path);
  if (!handle.ok()) {
    ADD_FAILURE() << "reader never opened: " << handle.status().message();
    return;
  }
  while (!stop->load()) {
    auto record = (*client)->ReadNext(*handle);
    if (!record.ok() || !record->has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    entries_read->fetch_add(1);
    EXPECT_EQ(ToString((**record).payload)[0], 'c');
  }
}

TEST_F(ChaosTest, CrashRestartLoopKeepsAckedAppendsExactlyOnce) {
  StartGeneration(CleanPolicy(), kSeedBase);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> append_failures{0};
  std::atomic<uint64_t> entries_read{0};
  AckJournal journal;
  std::vector<std::thread> threads;
  for (int id = 0; id < kWriters; ++id) {
    threads.emplace_back(WriterLoop, port_, std::string(kLog), id, &stop,
                         &journal, &append_failures);
  }
  threads.emplace_back(ReaderLoop, port_, std::string(kLog), &stop,
                       &entries_read);

  uint64_t revives = 0;
  bool power_cut = false;  // the serving generation runs PowerCutPolicy
  int power_cut_generations = 0;
  int tripped_generations = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    // Serve under the iteration's fault policy, reviving the device
    // whenever a scheduled power cut trips.
    const uint64_t revived = ServeGeneration({injector_}, power_cut);
    revives += revived;
    power_cut_generations += power_cut;
    tripped_generations += power_cut && revived > 0;

    KillServer();
    // Snapshot AFTER the kill: the server is down, so no new acks can
    // race the audit scan (acks recorded concurrently with the snapshot
    // are from replies already sent, hence already durable in the log).
    AuditMedia(journal.Snapshot(), iteration);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    const int mode = (iteration + 1) % 3;
    power_cut = mode == 2;
    StartGeneration(mode == 1   ? FlakyMediaPolicy()
                    : mode == 2 ? PowerCutPolicy()
                                : CleanPolicy(),
                    kSeedBase + iteration + 1);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }

  // Final audit with every journal entry, after a last clean shutdown.
  KillServer();
  std::vector<std::string> acked = journal.Snapshot();
  AuditMedia(acked, kIterations);

  // The harness really exercised what it claims: traffic flowed, crashes
  // happened every iteration, the reader made progress, and the scheduled
  // power cut tripped and was ridden through in every power-cut generation.
  EXPECT_GT(acked.size(), 100u);
  EXPECT_GT(entries_read.load(), 0u);
  EXPECT_GT(power_cut_generations, 0);
  EXPECT_EQ(tripped_generations, power_cut_generations);
  EXPECT_GE(revives, static_cast<uint64_t>(power_cut_generations));
  // Failures are legal (an outage can outlast a retry budget) but should
  // be the exception, not the rule.
  EXPECT_LT(append_failures.load(), acked.size());
}

// -- Degraded mode under the same crash-restart discipline. --
//
// Each generation runs with the in-server scrubber enabled while bit rot
// strikes one burned data block (a deterministic on-media flip through the
// fault injector — the WORM media itself lies, not the transport). The
// scrubber must find and quarantine the rotten block while the server
// keeps serving; the kill-and-audit then recovers the media offline, runs
// a synchronous scrub pass, and asserts the degraded-mode contract:
// every corrupt block convicted in ONE pass, a second pass silent, the
// hash-chain walk free of mismatches (rot desyncs and resyncs the chain,
// it does not forge it), and reads either draining or failing fast with
// the quarantine verdict instead of silently dropping entries.
TEST_F(ChaosTest, BitRotIsQuarantinedWhileTheServiceKeepsServing) {
  constexpr int kRotIterations = 6;
  StartGeneration(CleanPolicy(), kSeedBase + 0x2000, /*scrub=*/true);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  NetClientOptions client_options;
  client_options.retry.max_attempts = 20;
  client_options.retry.initial_backoff_ms = 1;

  uint64_t flips = 0;
  uint64_t appends = 0;
  for (int iteration = 0; iteration < kRotIterations; ++iteration) {
    SCOPED_TRACE("rot iteration " + std::to_string(iteration));
    auto client = NetLogClient::Connect(port_, client_options);
    ASSERT_OK(client.status());

    // Append a burst of forced entries so fresh pure data blocks exist.
    for (int i = 0; i < 40; ++i) {
      std::string payload = "c0-" + std::to_string(appends++);
      ASSERT_OK(
          (*client)->Append(kLog, AsBytes(payload), true, true).status());
    }

    // Rot one burned data block of the log. A write handle fences the
    // media mutation against the scrubber's concurrent shared-lock reads.
    uint64_t victim = 0;
    ASSERT_OK_AND_ASSIGN(LogFileId id, service_->Resolve(kLog));
    {
      LogService::WriteHandle fence = service_->LockForWrite();
      victim = FindDataBlockOf(service_.get(), id);
      ASSERT_NE(victim, 0u);
      Bytes buf(media_->block_size());
      ASSERT_OK(media_->ReadBlock(victim, buf));
      buf[100] ^= static_cast<std::byte>(1u << (iteration % 8));
      media_->Scribble(victim, buf);
      service_->cache().Erase({0, victim});
    }
    ++flips;

    // The background scrubber (interval 1ms) must find and quarantine the
    // rotten block on its own while the server stays up (a probe of a
    // quarantined block answers kFailedPrecondition).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (service_->ProbeBlock(0, victim).status().code() !=
           StatusCode::kFailedPrecondition) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "scrubber never quarantined block " << victim;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(service_->degraded());

    // Degraded, not down: appends still succeed after the verdict, and a
    // scan either drains or fails FAST with the quarantine status — never
    // a silent skip of a block known to have held entries.
    ASSERT_OK((*client)
                  ->Append(kLog, AsBytes("c0-" + std::to_string(appends++)),
                           true, true)
                  .status());
    {
      ASSERT_OK_AND_ASSIGN(auto reader, service_->OpenReader(kLog));
      for (;;) {
        auto next = reader->Next();
        if (!next.ok()) {
          EXPECT_EQ(next.status().code(), StatusCode::kCorrupt)
              << next.status().ToString();
          break;
        }
        if (!next->has_value()) {
          break;
        }
      }
    }

    (*client).reset();
    KillServer();

    // Offline audit: recover the bare media and scrub it synchronously.
    {
      SCOPED_TRACE("degraded audit after iteration " +
                   std::to_string(iteration));
      std::vector<std::unique_ptr<WormDevice>> devices;
      devices.push_back(
          std::make_unique<BorrowedDevice>(media_.get()));
      RecoveryReport recovery;
      auto service = LogService::Recover(std::move(devices), &clock_,
                                         ServiceOptions(), &recovery);
      ASSERT_OK(service.status());

      ScrubOptions audit_options;
      audit_options.cursor_persist_blocks = 1 << 20;  // full passes only
      Scrubber scrubber((*service).get(), audit_options);
      ASSERT_OK_AND_ASSIGN(Scrubber::PassStats first, scrubber.RunOnce());
      // Rot is detected as corruption, never as a forged chain, and every
      // corrupt block found is convicted in the same pass.
      EXPECT_EQ(first.chain_mismatches, 0u);
      EXPECT_EQ(first.corrupt_blocks, first.quarantined);
      ASSERT_OK_AND_ASSIGN(Scrubber::PassStats second, scrubber.RunOnce());
      EXPECT_EQ(second.corrupt_blocks, 0u);
      EXPECT_EQ(second.quarantined, 0u);

      // After the pass the quarantine set covers exactly the rotten
      // blocks: the verifier's corrupt count matches it, and the chain
      // walk stays mismatch-free end to end.
      EXPECT_EQ((*service)->catalog().quarantined().size(), flips);
      ASSERT_OK_AND_ASSIGN(VerifyReport verify,
                           VerifyVolume((*service)->current_volume()));
      EXPECT_EQ(verify.blocks_corrupt, flips);
      EXPECT_TRUE(verify.chain_mismatches.empty())
          << verify.chain_mismatches.front();
    }

    StartGeneration(CleanPolicy(), kSeedBase + 0x2000 + iteration + 1,
                    /*scrub=*/true);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  KillServer();
  EXPECT_EQ(flips, static_cast<uint64_t>(kRotIterations));
}

// -- Partitioned deployment under the same chaos discipline. --
//
// N volume sequences behind one server (src/partition/), each append lane
// with its own supervisor-owned dedup index. Every iteration ONE rotating
// partition runs under a fault policy while the others run clean media, so
// a dark or flaky partition never stops the survivors from acking — the
// writers pinned to healthy partitions keep succeeding while the faulty
// partition's writers ride their retry machinery. The kill then takes the
// whole incarnation (all lanes, mid-batch), and the offline audit recovers
// the partitioned service from the bare media: router rebuilt from the
// catalogs, every partition's volume verified clean, and every acked
// append present exactly once on its home partition.

constexpr uint32_t kChaosPartitions = 2;

class PartitionedChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryWormOptions dev_options;
    dev_options.block_size = 1024;
    dev_options.capacity_blocks = 32768;
    for (uint32_t p = 0; p < kChaosPartitions; ++p) {
      media_.push_back(std::make_unique<MemoryWormDevice>(dev_options));
      dedup_.push_back(std::make_unique<AppendDedupIndex>());
    }
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  static std::string PartitionLog(uint32_t p) {
    return "/part" + std::to_string(p);
  }

  PartitionedServiceOptions ServiceOptions() {
    PartitionedServiceOptions options;
    options.base.sequence_id = 0xC4A1;
    return options;
  }

  // Brings up one incarnation with `policy` injected on partition
  // `faulty` only; the other partitions get clean pass-through injectors.
  void StartGeneration(const FaultPolicy& policy, uint32_t faulty,
                       uint64_t seed) {
    injectors_.assign(kChaosPartitions, nullptr);
    auto injector_for = [&](uint32_t p) {
      auto injector = std::make_unique<FaultInjectingWormDevice>(
          std::make_unique<BorrowedDevice>(media_[p].get()),
          p == faulty ? policy : FaultPolicy{}, seed + p);
      injectors_[p] = injector.get();
      return injector;
    };
    if (!created_) {
      std::vector<std::unique_ptr<WormDevice>> devices;
      for (uint32_t p = 0; p < kChaosPartitions; ++p) {
        devices.push_back(injector_for(p));
      }
      auto service = PartitionedLogService::Create(std::move(devices),
                                                   &clock_, ServiceOptions());
      ASSERT_OK(service.status());
      service_ = std::move(service).value();
      for (uint32_t p = 0; p < kChaosPartitions; ++p) {
        ASSERT_OK(service_->CreateLogFile(PartitionLog(p), 0644, p).status());
      }
      created_ = true;
    } else {
      std::vector<std::vector<std::unique_ptr<WormDevice>>> chains;
      for (uint32_t p = 0; p < kChaosPartitions; ++p) {
        std::vector<std::unique_ptr<WormDevice>> chain;
        chain.push_back(injector_for(p));
        chains.push_back(std::move(chain));
      }
      auto service = PartitionedLogService::Recover(
          std::move(chains), &clock_, ServiceOptions(), nullptr);
      ASSERT_OK(service.status());
      service_ = std::move(service).value();
    }
    NetLogServerOptions options;
    options.port = port_;
    for (auto& dedup : dedup_) {
      options.dedup.push_back(dedup.get());
    }
    options.batch.max_hold_us = 200;
    auto server = NetLogServer::Start(service_.get(), options);
    ASSERT_OK(server.status());
    server_ = std::move(server).value();
    port_ = server_->port();
  }

  void KillServer() {
    server_->Stop();
    server_.reset();
    service_.reset();
    injectors_.assign(kChaosPartitions, nullptr);
    for (auto& dedup : dedup_) {
      dedup->DropNonDurable();
    }
  }

  // Offline audit over the bare media: recover the whole deployment,
  // verify every partition's volume, and scan each partition's log file
  // against the acked journal and the routing invariant (writer w's
  // payloads live on partition w % kChaosPartitions and nowhere else).
  void AuditMedia(const std::vector<std::string>& acked, int iteration) {
    SCOPED_TRACE("audit after iteration " + std::to_string(iteration));
    std::vector<std::vector<std::unique_ptr<WormDevice>>> chains;
    for (auto& media : media_) {
      std::vector<std::unique_ptr<WormDevice>> chain;
      chain.push_back(std::make_unique<BorrowedDevice>(media.get()));
      chains.push_back(std::move(chain));
    }
    auto service = PartitionedLogService::Recover(std::move(chains), &clock_,
                                                  ServiceOptions(), nullptr);
    ASSERT_OK(service.status());

    std::map<std::string, int> multiplicity;
    std::vector<int64_t> last_seq(kWriters, -1);
    for (uint32_t p = 0; p < kChaosPartitions; ++p) {
      ASSERT_OK_AND_ASSIGN(
          VerifyReport verify,
          VerifyVolume((*service)->partition(p)->current_volume()));
      EXPECT_TRUE(verify.clean())
          << "partition " << p
          << " missing_bits=" << verify.missing_bits.size()
          << " broken_chains=" << verify.broken_chains.size()
          << " time_regressions=" << verify.time_regressions.size()
          << " blocks_corrupt=" << verify.blocks_corrupt
          << " chain_mismatches=" << verify.chain_mismatches.size()
          << (verify.chain_mismatches.empty()
                  ? ""
                  : " first=" + verify.chain_mismatches.front());
      EXPECT_EQ((*service)->RouteOf(PartitionLog(p)),
                std::optional<uint32_t>(p));

      ASSERT_OK_AND_ASSIGN(auto reader,
                           (*service)->OpenReader(PartitionLog(p)));
      Timestamp previous = 0;
      for (;;) {
        ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
        if (!record.has_value()) {
          break;
        }
        std::string payload = ToString(record->payload);
        ++multiplicity[payload];
        EXPECT_GE(record->timestamp, previous) << "at " << payload;
        previous = record->timestamp;
        ASSERT_EQ(payload[0], 'c');
        size_t dash = payload.find('-');
        ASSERT_NE(dash, std::string::npos);
        int writer = std::stoi(payload.substr(1, dash - 1));
        int64_t seq = std::stoll(payload.substr(dash + 1));
        ASSERT_LT(writer, kWriters);
        EXPECT_EQ(static_cast<uint32_t>(writer) % kChaosPartitions, p)
            << payload << " on the wrong partition";
        EXPECT_GT(seq, last_seq[writer])
            << "writer " << writer << " out of order at " << payload;
        last_seq[writer] = seq;
      }
    }
    for (const auto& [payload, count] : multiplicity) {
      EXPECT_EQ(count, 1) << payload << " duplicated";
    }
    for (const std::string& payload : acked) {
      auto it = multiplicity.find(payload);
      EXPECT_TRUE(it != multiplicity.end()) << "acked " << payload << " lost";
    }
  }

  SimulatedClock clock_{1'000'000, /*auto_tick=*/7};
  // Supervisor state: one dedup index per append lane, outliving every
  // incarnation (mirrors how the server wires one dedup index per lane).
  std::vector<std::unique_ptr<AppendDedupIndex>> dedup_;
  std::vector<std::unique_ptr<MemoryWormDevice>> media_;
  std::unique_ptr<PartitionedLogService> service_;
  std::unique_ptr<NetLogServer> server_;
  std::vector<FaultInjectingWormDevice*> injectors_;
  uint16_t port_ = 0;
  bool created_ = false;
};

TEST_F(PartitionedChaosTest, RotatingPartitionFaultsKeepAcksExactlyOnce) {
  StartGeneration(CleanPolicy(), /*faulty=*/0, kSeedBase);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> append_failures{0};
  std::atomic<uint64_t> entries_read{0};
  AckJournal journal;
  std::vector<std::thread> threads;
  // Writer w is pinned to partition w % kChaosPartitions, so every
  // iteration has writers on both the faulty partition and the survivors.
  for (int id = 0; id < kWriters; ++id) {
    threads.emplace_back(WriterLoop, port_,
                         PartitionLog(id % kChaosPartitions), id, &stop,
                         &journal, &append_failures);
  }
  threads.emplace_back(ReaderLoop, port_, PartitionLog(0), &stop,
                       &entries_read);

  uint64_t revives = 0;
  bool power_cut = false;  // the faulty partition runs PowerCutPolicy
  int power_cut_generations = 0;
  int tripped_generations = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const uint64_t revived = ServeGeneration(injectors_, power_cut);
    revives += revived;
    power_cut_generations += power_cut;
    tripped_generations += power_cut && revived > 0;

    KillServer();
    AuditMedia(journal.Snapshot(), iteration);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    const int mode = (iteration + 1) % 3;
    power_cut = mode == 2;
    StartGeneration(mode == 1   ? FlakyMediaPolicy()
                    : mode == 2 ? PowerCutPolicy()
                                : CleanPolicy(),
                    /*faulty=*/(iteration + 1) % kChaosPartitions,
                    kSeedBase + 0x1000 + iteration + 1);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }

  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }

  KillServer();
  std::vector<std::string> acked = journal.Snapshot();
  AuditMedia(acked, kIterations);

  EXPECT_GT(acked.size(), 100u);
  EXPECT_GT(entries_read.load(), 0u);
  EXPECT_GT(power_cut_generations, 0);
  EXPECT_EQ(tripped_generations, power_cut_generations);
  EXPECT_GE(revives, static_cast<uint64_t>(power_cut_generations));
  EXPECT_LT(append_failures.load(), acked.size());
}

// -- Checkpointed fast-restart chaos (DESIGN.md §17) --
//
// Crash-restart loop around the NVRAM checkpoint sidecar: every round
// appends a random forced/unforced mix (fragment chains included), kills
// the service at an arbitrary distance past the last checkpoint — and
// sometimes corrupts the checkpoint blob first, forcing the full-scan
// fallback. After every recovery:
//  - the restored-plus-replayed extent index must serialize byte-for-byte
//    identical to an index rebuilt by a full media scan with no
//    checkpoint in sight (convergence invariant I2, tests/index_test.cc);
//  - VerifyVolume stays clean, including its index cross-check;
//  - the surviving log is an append-order prefix that contains at least
//    everything appended up to the last force.
TEST(CheckpointChaosTest, KillsAroundCheckpointsConvergeByteForByte) {
  const int kRounds = clio::testing::ChaosIterations(24);
  constexpr uint32_t kBlockSize = 512;
  NvramTail nvram(kBlockSize);
  MemoryWormOptions dev;
  dev.block_size = kBlockSize;
  dev.capacity_blocks = 1 << 15;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, /*auto_tick=*/7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  options.sequence_id = 0xC4A1;
  options.nvram = &nvram;
  options.checkpoint_interval_blocks = 8;

  auto created = LogService::Create(
      std::make_unique<BorrowedDevice>(&media), &clock, options);
  ASSERT_OK(created.status());
  std::unique_ptr<LogService> service = std::move(created).value();
  const std::vector<std::string> paths = {"/ck0", "/ck1"};
  for (const std::string& path : paths) {
    ASSERT_OK(service->CreateLogFile(path).status());
  }

  Rng rng(0xC4A0C4A0);
  // Per-path journal of everything appended since the last crash trim;
  // crash survivors are always an append-order prefix of it.
  std::map<std::string, std::vector<std::string>> journal;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Serve a burst of traffic. forced_floor = per-path journal size at
    // the last force: those entries must survive the kill.
    std::map<std::string, size_t> forced_floor;
    const int appends = 10 + static_cast<int>(rng.Below(40));
    for (int i = 0; i < appends; ++i) {
      const std::string& path = paths[rng.Below(paths.size())];
      Bytes payload =
          testing::RandomPayload(&rng, 1 + rng.Below(3 * kBlockSize));
      WriteOptions opts;
      opts.timestamped = true;
      opts.force = rng.Chance(1, 3);
      auto result = service->Append(path, payload, opts);
      ASSERT_OK(result.status());
      journal[path].push_back(ToString(payload));
      if (opts.force) {
        for (const std::string& p : paths) {
          forced_floor[p] = journal[p].size();
        }
      }
    }

    // Sometimes tamper with the checkpoint before the kill: recovery must
    // detect the damage (crc) and fall back to the full scan.
    bool tampered = false;
    if (nvram.has_checkpoint() && rng.Chance(1, 5)) {
      Bytes bad(nvram.checkpoint().begin(), nvram.checkpoint().end());
      bad[rng.Below(bad.size())] ^= std::byte{0x20};
      nvram.StoreCheckpoint(bad);
      tampered = true;
    }

    // Kill: the service and every staged-unforced byte die; the media and
    // the NVRAM sidecar survive.
    service.reset();
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(&media));
    RecoveryReport report;
    auto recovered =
        LogService::Recover(std::move(devices), &clock, options, &report);
    ASSERT_OK(recovered.status());
    service = std::move(recovered).value();
    if (tampered) {
      EXPECT_FALSE(report.restored_checkpoint);
    }

    // Convergence: recovered index bytes == full-scan-rebuilt index bytes.
    LogVolume* volume = service->current_volume();
    ASSERT_OK(volume->EnsureExtentIndex());
    ASSERT_NE(volume->extent_index(), nullptr);
    Bytes recovered_bytes = volume->extent_index()->Serialize();
    {
      LogServiceOptions scan_options = options;
      scan_options.nvram = nullptr;  // no staged tail, no checkpoint
      scan_options.checkpoint_interval_blocks = 0;
      std::vector<std::unique_ptr<WormDevice>> scan_devices;
      scan_devices.push_back(
          std::make_unique<BorrowedDevice>(&media));
      auto scanned = LogService::Recover(std::move(scan_devices), &clock,
                                         scan_options, nullptr);
      ASSERT_OK(scanned.status());
      LogVolume* scan_volume = (*scanned)->current_volume();
      ASSERT_OK(scan_volume->EnsureExtentIndex());
      ASSERT_NE(scan_volume->extent_index(), nullptr);
      EXPECT_EQ(ToString(recovered_bytes),
                ToString(scan_volume->extent_index()->Serialize()))
          << "checkpoint-restored index diverged from a scan rebuild";
    }

    ASSERT_OK_AND_ASSIGN(VerifyReport verify, VerifyVolume(volume));
    EXPECT_TRUE(verify.clean())
        << (verify.index_mismatches.empty()
                ? "non-index defect"
                : verify.index_mismatches.front());

    // Survivors: per path, an append-order prefix reaching the floor.
    for (const std::string& path : paths) {
      ASSERT_OK_AND_ASSIGN(auto reader, service->OpenReader(path));
      std::vector<std::string> survivors;
      while (true) {
        ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
        if (!record.has_value()) {
          break;
        }
        survivors.push_back(ToString(record->payload));
      }
      ASSERT_LE(survivors.size(), journal[path].size());
      ASSERT_GE(survivors.size(), forced_floor[path]);
      for (size_t i = 0; i < survivors.size(); ++i) {
        const std::string& want = journal[path][i];
        if (i + 1 == survivors.size() && i >= forced_floor[path] &&
            survivors[i].size() < want.size()) {
          // The path's last entry was mid-fragment-chain at the kill: its
          // burned blocks survive, the staged tail fragment died with the
          // service. Unforced entries carry no durability promise, so a
          // truncated tail is legal — but it must be a byte prefix.
          ASSERT_EQ(want.compare(0, survivors[i].size(), survivors[i]), 0)
              << path << " truncated tail diverged at entry " << i;
        } else {
          ASSERT_EQ(survivors[i], want) << path << " entry " << i;
        }
      }
      journal[path] = std::move(survivors);
    }
  }
}

}  // namespace
}  // namespace clio
