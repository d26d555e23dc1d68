// clio_inspect: volume inspection and integrity checking (fsck for log
// volumes).
//
// Usage:
//   clio_inspect <device-file> [block-size] [capacity-blocks]
//     opens an existing file-backed volume read-only, prints its header,
//     catalog, block map and entrymap statistics, and runs the verifier.
//   clio_inspect
//     with no arguments, builds a small demo volume in /tmp and inspects
//     that, so the tool is runnable out of the box.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/file_worm_device.h"
#include "src/util/rng.h"

namespace {

#define CHECK_OK(expr)                                             \
  do {                                                             \
    auto _st = (expr);                                             \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "FATAL: %s\n", _st.ToString().c_str()); \
      return 1;                                                    \
    }                                                              \
  } while (0)

int BuildDemoVolume(const std::string& path, uint32_t block_size,
                    uint64_t capacity) {
  using namespace clio;
  std::remove(path.c_str());
  std::remove((path + ".state").c_str());
  FileWormOptions dev;
  dev.block_size = block_size;
  dev.capacity_blocks = capacity;
  auto device = FileWormDevice::Open(path, dev);
  CHECK_OK(device.status());
  RealTimeSource clock;
  LogServiceOptions options;
  options.entrymap_degree = 8;
  options.label = "clio_inspect demo volume";
  auto service = LogService::Create(std::move(device).value(), &clock,
                                    options);
  CHECK_OK(service.status());
  CHECK_OK(service.value()->CreateLogFile("/audit").status());
  CHECK_OK(service.value()->CreateLogFile("/audit/logins").status());
  CHECK_OK(service.value()->CreateLogFile("/metrics").status());
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const char* target = i % 3 == 0 ? "/audit/logins"
                         : i % 3 == 1 ? "/audit"
                                      : "/metrics";
    Bytes payload(20 + rng.Below(80));
    for (auto& b : payload) {
      b = static_cast<std::byte>('a' + rng.Below(26));
    }
    WriteOptions opts;
    opts.force = i % 7 == 0;
    CHECK_OK(service.value()->Append(target, payload, opts).status());
  }
  CHECK_OK(service.value()->Force());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clio;

  std::string path;
  uint32_t block_size = 512;
  uint64_t capacity = 4096;
  if (argc >= 2) {
    path = argv[1];
    if (argc >= 3) {
      block_size = static_cast<uint32_t>(std::atoi(argv[2]));
    }
    if (argc >= 4) {
      capacity = static_cast<uint64_t>(std::atoll(argv[3]));
    }
  } else {
    path = "/tmp/clio_inspect_demo.dev";
    std::printf("(no device given; building a demo volume at %s)\n\n",
                path.c_str());
    if (int rc = BuildDemoVolume(path, block_size, capacity); rc != 0) {
      return rc;
    }
  }

  FileWormOptions dev;
  dev.block_size = block_size;
  dev.capacity_blocks = capacity;
  auto device = FileWormDevice::Open(path, dev);
  CHECK_OK(device.status());

  RealTimeSource clock;
  BlockCache cache(4096, block_size);
  Catalog catalog;
  RecoveryReport recovery;
  auto volume = LogVolume::Open(device.value().get(), &cache, 0, &catalog,
                                &clock, nullptr, /*writable=*/false,
                                LogServiceOptions{}.readahead_blocks,
                                &recovery);
  CHECK_OK(volume.status());
  LogVolume& v = *volume.value();

  std::printf("=== volume header ===\n");
  std::printf("  label:            '%s'\n", v.header().label.c_str());
  std::printf("  sequence id:      %016llx, volume #%u\n",
              static_cast<unsigned long long>(v.header().sequence_id),
              v.header().volume_index);
  std::printf("  block size:       %u B, entrymap degree N=%u "
              "(%d tree levels)\n",
              v.header().block_size, v.header().entrymap_degree,
              v.geometry().max_level());
  std::printf("  written blocks:   %llu, sealed: %s\n",
              static_cast<unsigned long long>(v.end_block()),
              v.sealed() ? "yes" : "no");
  std::printf("  recovery:         %llu end-locate reads, %llu tail-scan "
              "blocks, %llu catalog blocks\n\n",
              static_cast<unsigned long long>(recovery.end_location_reads),
              static_cast<unsigned long long>(recovery.tail_scan_blocks),
              static_cast<unsigned long long>(
                  recovery.catalog_replay_blocks));

  std::printf("=== catalog (log files) ===\n");
  for (const LogFileInfo& info : catalog.All()) {
    auto full_path = catalog.PathOf(info.id);
    std::printf("  [%4u] %-24s perms=%03o%s\n", info.id,
                full_path.ok() ? full_path.value().c_str() : "?",
                info.permissions, info.sealed ? " (sealed)" : "");
  }

  std::printf("\n=== block map ===\n");
  std::map<LogFileId, uint64_t> entries_per_file;
  uint64_t invalid = 0;
  uint64_t corrupt = 0;
  for (uint64_t b = 1; b < v.end_block(); ++b) {
    OpStats stats;
    auto parsed = v.GetBlock(b, &stats);
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kInvalidated) {
        ++invalid;
      } else {
        ++corrupt;
      }
      continue;
    }
    for (const ParsedEntry& e : parsed.value().entries()) {
      if (!e.is_fragment()) {
        ++entries_per_file[e.logfile_id];
      }
    }
  }
  for (const auto& [id, count] : entries_per_file) {
    auto full_path = catalog.PathOf(id);
    std::printf("  %-24s %llu entries\n",
                full_path.ok() ? full_path.value().c_str() : "?",
                static_cast<unsigned long long>(count));
  }
  std::printf("  invalidated blocks: %llu, corrupt blocks: %llu\n",
              static_cast<unsigned long long>(invalid),
              static_cast<unsigned long long>(corrupt));

  std::printf("\n=== integrity check ===\n");
  auto verify = VerifyVolume(&v);
  CHECK_OK(verify.status());
  const VerifyReport& report = verify.value();
  std::printf("  blocks: %llu total / %llu valid / %llu invalidated / "
              "%llu corrupt\n",
              static_cast<unsigned long long>(report.blocks_total),
              static_cast<unsigned long long>(report.blocks_valid),
              static_cast<unsigned long long>(report.blocks_invalidated),
              static_cast<unsigned long long>(report.blocks_corrupt));
  std::printf("  entries: %llu (%llu fragments), entrymap nodes: %llu, "
              "catalog records: %llu\n",
              static_cast<unsigned long long>(report.entries_total),
              static_cast<unsigned long long>(report.fragments_total),
              static_cast<unsigned long long>(report.entrymap_nodes),
              static_cast<unsigned long long>(report.catalog_records));
  std::printf("  missing bits: %zu, stale bits: %zu, broken chains: %zu, "
              "time regressions: %zu\n",
              report.missing_bits.size(), report.stale_bits.size(),
              report.broken_chains.size(), report.time_regressions.size());
  for (const auto& s : report.missing_bits) {
    std::printf("    MISSING: %s\n", s.c_str());
  }
  for (const auto& s : report.broken_chains) {
    std::printf("    BROKEN:  %s\n", s.c_str());
  }
  std::printf("  verdict: %s\n",
              report.clean() ? "CLEAN" : "DEFECTS FOUND");
  return report.clean() ? 0 : 2;
}
