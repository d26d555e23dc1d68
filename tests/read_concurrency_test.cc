// Concurrent read-path stress: 8 reader threads tail one log file over
// loopback TCP while a writer appends and forces. Exercises the shared/
// exclusive locking of DESIGN.md §12 end to end — sharded cache, shared-
// lock dispatch, kReadBatch, and sequential readahead all run at once.
// Every reader asserts:
//   * no torn entries — each payload is self-describing (sequence number
//     plus a seed-derived fill pattern spanning block boundaries) and must
//     verify byte-for-byte;
//   * monotone cursors — an append-only log read forward from the start
//     yields exactly sequence 0, 1, 2, ... with nondecreasing timestamps,
//     and end-of-log is never followed by an entry older than one already
//     seen.
// Built into the TSan and ASan+UBSan CI jobs (see .github/workflows/
// ci.yml), where the interesting failures would actually be caught.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/net_client.h"
#include "src/clio/verify.h"
#include "src/net/net_server.h"
#include "src/scrub/scrubber.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using clio::testing::ServiceFixture;

constexpr int kReaders = 8;
constexpr int kEntries = 300;
constexpr char kPath[] = "/tail";

// Payload for sequence i: header + deterministic fill whose length varies
// from a few bytes to ~1.5 blocks, so some entries span block boundaries
// (the case a torn concurrent read would corrupt).
Bytes PayloadFor(int seq) {
  std::string header = "seq-" + std::to_string(seq) + ":";
  size_t fill = static_cast<size_t>((seq * 37) % 1500);
  std::string body(fill, static_cast<char>('a' + seq % 26));
  Bytes out;
  out.reserve(header.size() + body.size());
  for (char c : header) {
    out.push_back(static_cast<std::byte>(c));
  }
  for (char c : body) {
    out.push_back(static_cast<std::byte>(c));
  }
  return out;
}

// One tailing reader: consumes entries from the start of the log until it
// has seen all kEntries, re-polling on end-of-log (the writer may still
// be behind). `batched` routes reads through kReadBatch; otherwise
// per-entry kReadNext.
void TailReader(uint16_t port, bool batched, std::atomic<bool>* failed) {
  auto client = NetLogClient::Connect(port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto handle = (*client)->OpenReader(kPath);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  BatchedReader reader(client->get(), *handle, /*batch_size=*/32);

  int next_seq = 0;
  Timestamp last_ts = 0;
  while (next_seq < kEntries && !failed->load()) {
    Result<std::optional<RemoteEntry>> entry =
        batched ? reader.Next() : (*client)->ReadNext(*handle);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    if (!entry->has_value()) {
      // Caught up with the writer: pause before re-polling, to spare the
      // CPU (the service lock prefers writers, so spinning would not
      // starve the writer; ForcedAppendsFinishUnderSpinningReaders).
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    const RemoteEntry& got = **entry;
    Bytes expected = PayloadFor(next_seq);
    ASSERT_EQ(got.payload, expected)
        << "torn or out-of-order entry where sequence " << next_seq
        << " was expected";
    ASSERT_GE(got.timestamp, last_ts) << "timestamp went backwards at "
                                      << next_seq;
    last_ts = got.timestamp;
    ++next_seq;
  }
  EXPECT_EQ(next_seq, kEntries);
  EXPECT_TRUE((*client)->CloseReader(*handle).ok());
}

TEST(ReadConcurrency, EightTailingReadersRaceOneWriter) {
  ServiceFixture fx = ServiceFixture::Make();
  auto server = NetLogServer::Start(fx.service.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  uint16_t port = (*server)->port();

  {
    auto setup = NetLogClient::Connect(port);
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE((*setup)->CreateLogFile(kPath).ok());
  }

  // If any ASSERT fires inside a reader thread it only aborts that
  // thread's function; the flag stops the others instead of letting them
  // poll a log that will never finish.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([port, r, &failed] {
      TailReader(port, /*batched=*/r % 2 == 0, &failed);
      if (::testing::Test::HasFailure()) {
        failed.store(true);
      }
    });
  }

  std::thread writer([port, &failed] {
    auto client = NetLogClient::Connect(port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < kEntries && !failed.load(); ++i) {
      // Force every eighth append so readers race both the staged tail
      // and freshly burned blocks.
      auto appended = (*client)->Append(kPath, PayloadFor(i),
                                       /*timestamped=*/true,
                                       /*force=*/i % 8 == 7);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    }
  });

  writer.join();
  if (::testing::Test::HasFailure()) {
    failed.store(true);
  }
  for (auto& t : readers) {
    t.join();
  }
  (*server)->Stop();
  EXPECT_FALSE(failed.load());
}

// Same race through the service API directly (no sockets): the service
// takes its lock per call, shared for each reader call and exclusive for
// each append (DESIGN.md §12). Each reader runs a FIXED number of
// verification passes; prefix consistency and cursor monotonicity are
// asserted per pass, and completeness by a final scan after the writer
// finishes.
TEST(ReadConcurrency, SharedLockReadersSeeConsistentPrefixes) {
  ServiceFixture fx = ServiceFixture::Make();
  LogService* service = fx.service.get();
  ASSERT_TRUE(service->CreateLogFile(kPath).ok());
  auto id = service->Resolve(kPath);
  ASSERT_TRUE(id.ok());

  constexpr int kPassesPerReader = 25;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int seen_floor = 0;  // entries seen by the previous pass
      for (int pass = 0; pass < kPassesPerReader && !failed.load(); ++pass) {
        {
          auto reader = service->OpenReaderById(*id);
          if (!reader.ok()) {
            failed.store(true);
            return;
          }
          // A full forward pass must yield a verbatim prefix 0..seq-1 and
          // can never be shorter than an earlier pass (append-only log).
          int seq = 0;
          while (true) {
            auto entry = (*reader)->Next();
            if (!entry.ok()) {
              failed.store(true);
              return;
            }
            if (!entry->has_value()) {
              break;
            }
            if ((*entry)->payload != PayloadFor(seq)) {
              ADD_FAILURE() << "torn entry at sequence " << seq;
              failed.store(true);
              return;
            }
            ++seq;
          }
          if (seq < seen_floor) {
            ADD_FAILURE() << "cursor went backwards: pass saw " << seq
                          << " entries after an earlier pass saw "
                          << seen_floor;
            failed.store(true);
            return;
          }
          seen_floor = seq;
        }
        // Idle between passes, so passes see different prefixes.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  std::thread writer([&] {
    WriteOptions opts;
    opts.timestamped = true;
    for (int i = 0; i < kEntries && !failed.load(); ++i) {
      auto appended = service->Append(*id, PayloadFor(i), opts);
      if (!appended.ok()) {
        failed.store(true);
        return;
      }
      if (i % 8 == 7 && !service->Force().ok()) {
        failed.store(true);
        return;
      }
    }
  });

  for (auto& t : readers) {
    t.join();
  }
  writer.join();
  ASSERT_FALSE(failed.load());

  // Completeness: with the race over, one more pass sees every entry.
  auto reader = service->OpenReaderById(*id);
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < kEntries; ++i) {
    auto entry = (*reader)->Next();
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    ASSERT_TRUE(entry->has_value()) << "log ended at " << i;
    EXPECT_EQ((*entry)->payload, PayloadFor(i));
  }
  auto end = (*reader)->Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

// Writer progress under spinning readers (DESIGN.md §12): 16 threads
// re-poll the end of the log in a tight loop, with no back-off, for about
// a second, so their shared holds overlap back to back. The service lock
// prefers writers, so every forced append meanwhile must finish within a
// fixed bound; under a reader-preferring lock the first one waits until
// the readers stop.
TEST(ReadConcurrency, ForcedAppendsFinishUnderSpinningReaders) {
  constexpr int kSpinners = 16;
  constexpr auto kSpin = std::chrono::seconds(1);
  constexpr auto kBound = std::chrono::milliseconds(250);
  ServiceFixture fx = ServiceFixture::Make();
  LogService* service = fx.service.get();
  ASSERT_TRUE(service->CreateLogFile(kPath).ok());

  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  std::atomic<int> spinning{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kSpinners; ++r) {
    readers.emplace_back([&] {
      auto reader = service->OpenReader(kPath);
      if (!reader.ok()) {
        failed.store(true);
        return;
      }
      spinning.fetch_add(1);
      while (std::chrono::steady_clock::now() < deadline) {
        if (!(*reader)->Next().ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  while (spinning.load() < kSpinners && !failed.load()) {
    std::this_thread::yield();
  }

  WriteOptions opts;
  opts.timestamped = true;
  opts.force = true;
  int appends = 0;
  auto worst = std::chrono::steady_clock::duration::zero();
  while (std::chrono::steady_clock::now() < deadline && !failed.load()) {
    const auto start = std::chrono::steady_clock::now();
    auto appended = service->Append(kPath, PayloadFor(appends), opts);
    worst = std::max(worst, std::chrono::steady_clock::now() - start);
    if (!appended.ok()) {
      ADD_FAILURE() << appended.status().ToString();
      break;
    }
    ++appends;
  }
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_GT(appends, 1);
  EXPECT_LT(worst, kBound)
      << "a forced append waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(worst).count()
      << " ms behind spinning readers (" << appends << " appends)";
}

std::string WriterPath(int writer, int file) {
  return "/w" + std::to_string(writer) + "-" + std::to_string(file);
}

// Every kind of LogService call at once, with no lock taken by the test:
// writers create files, append (forced and not) and force; readers open,
// scan both ways, seek by time, stat and build chain proofs; a scrubber
// re-reads every burned block. The service's own lock is all that orders
// them (DESIGN.md §12).
TEST(ReadConcurrency, ServiceCallsNeedNoCallerLock) {
  constexpr int kWriters = 4;
  constexpr int kFilesPerWriter = 3;
  constexpr int kAppendsPerFile = 40;
  constexpr int kPassesPerReader = 20;
  ServiceFixture fx = ServiceFixture::Make();
  LogService* service = fx.service.get();
  // Each writer's first file exists up front so its reader has a target;
  // the rest are created mid-race. created[w] counts the files of writer
  // w that readers may open.
  std::atomic<int> created[kWriters];
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_OK(service->CreateLogFile(WriterPath(w, 0)).status());
    created[w].store(1);
  }

  std::atomic<bool> failed{false};
  auto fail = [&failed](const std::string& what) {
    ADD_FAILURE() << what;
    failed.store(true);
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int f = 0; f < kFilesPerWriter && !failed.load(); ++f) {
        const std::string path = WriterPath(w, f);
        if (f > 0) {
          if (!service->CreateLogFile(path).ok()) {
            return fail("create " + path);
          }
          created[w].store(f + 1);
        }
        for (int i = 0; i < kAppendsPerFile; ++i) {
          WriteOptions opts;
          opts.timestamped = true;
          opts.force = i % 5 == 4;
          if (!service->Append(path, PayloadFor(i), opts).ok()) {
            return fail("append to " + path);
          }
          if (i % 8 == 7 && !service->Force().ok()) {
            return fail("force");
          }
        }
      }
    });
  }
  for (int r = 0; r < kWriters; ++r) {
    threads.emplace_back([&, r] {
      for (int pass = 0; pass < kPassesPerReader && !failed.load(); ++pass) {
        const std::string path = WriterPath(r, pass % created[r].load());
        if (!service->Stat(path).ok()) {
          return fail("stat " + path);
        }
        auto reader = service->OpenReader(path);
        if (!reader.ok()) {
          return fail("open " + path);
        }
        // Forward: a verbatim, time-ordered prefix.
        int n = 0;
        Timestamp last_ts = 0;
        for (;;) {
          auto entry = (*reader)->Next();
          if (!entry.ok()) {
            return fail("next: " + entry.status().ToString());
          }
          if (!entry->has_value()) {
            break;
          }
          if ((*entry)->payload != PayloadFor(n) ||
              (*entry)->timestamp <= last_ts) {
            return fail(path + ": torn or reordered entry " +
                        std::to_string(n));
          }
          last_ts = (*entry)->timestamp;
          ++n;
        }
        if (n == 0) {
          continue;
        }
        // Backward from the end gap, then by time: both land on the last
        // entry seen; the one after it, if any arrived since, is next.
        auto last = (*reader)->Prev();
        if (!last.ok() || !last->has_value() ||
            (*last)->payload != PayloadFor(n - 1)) {
          return fail(path + ": prev did not return the last entry");
        }
        if (!(*reader)->SeekToTime(last_ts).ok()) {
          return fail("seek " + path);
        }
        auto at = (*reader)->Prev();
        auto after = (*reader)->Next();
        auto later = (*reader)->Next();
        if (!at.ok() || !at->has_value() ||
            (*at)->payload != PayloadFor(n - 1) || !after.ok() ||
            !after->has_value() || (*after)->payload != PayloadFor(n - 1) ||
            !later.ok() ||
            (later->has_value() && (*later)->payload != PayloadFor(n))) {
          return fail(path + ": time seek misplaced the gap");
        }
        auto proof = service->BuildChainProof(path, last_ts);
        if (!proof.ok()) {
          return fail("proof: " + proof.status().ToString());
        }
        auto proven = proof->Verify();
        if (!proven.ok() || proven->timestamp != last_ts) {
          return fail(path + ": proof does not verify");
        }
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread scrub([&] {
    Scrubber scrubber(service, ScrubOptions{});
    while (!done.load()) {
      auto stats = scrubber.RunOnce();
      if (!stats.ok() || stats->corrupt_blocks != 0 ||
          stats->chain_mismatches != 0 || stats->quarantined != 0) {
        return fail("scrub found damage on healthy media");
      }
    }
  });
  for (auto& t : threads) {
    t.join();
  }
  done.store(true);
  scrub.join();
  ASSERT_FALSE(failed.load());

  for (int w = 0; w < kWriters; ++w) {
    for (int f = 0; f < kFilesPerWriter; ++f) {
      ASSERT_OK_AND_ASSIGN(auto reader,
                           service->OpenReader(WriterPath(w, f)));
      for (int i = 0; i < kAppendsPerFile; ++i) {
        ASSERT_OK_AND_ASSIGN(auto entry, reader->Next());
        ASSERT_TRUE(entry.has_value()) << WriterPath(w, f) << " ended at "
                                       << i;
        EXPECT_EQ(entry->payload, PayloadFor(i));
      }
      ASSERT_OK_AND_ASSIGN(auto end, reader->Next());
      EXPECT_FALSE(end.has_value());
    }
  }
  for (size_t v = 0; v < service->volume_count(); ++v) {
    ASSERT_OK_AND_ASSIGN(VerifyReport report,
                         VerifyVolume(service->volume(v)));
    EXPECT_TRUE(report.clean());
  }
}

}  // namespace
}  // namespace clio
