// Checkpoint sidecar: one volume's recovery state, kept in the NVRAM
// sidecar slot (src/device/nvram_tail.h) so restart replays a bounded
// suffix of the volume instead of re-scanning it (DESIGN.md §17).
//
// The sidecar is a log of framed records, each with its own length,
// crc32c and covered block range [from, covered_end):
//  - a BASE record (from == 1) covers the whole volume so far and always
//    carries the catalog;
//  - each DELTA record covers [previous covered_end, covered_end): the
//    extent index's growth over that range, the accumulator's pending
//    nodes (a node the previous record held lists only its changed
//    files), and the catalog only when it changed.
// The writer compacts into a fresh base once the deltas would exceed a
// quarter of the base, so a checkpoint costs O(interval) on average and
// the sidecar holds at most 1.25x the base.
//
// Together the records carry everything LogVolume::Open otherwise
// reconstructs by reading media: the extent index over [1, covered_end),
// the entrymap accumulator's pending (not-yet-burned) nodes, the
// catalog's export records, and the largest timestamp issued so far (for
// the uniqueness floor).
//
// A checkpoint is advisory: any bad magic, version, length, checksum or
// gap in any record discards the whole sidecar, and a staleness mismatch
// (wrong volume, covered_end past the recovered end-of-log) makes
// recovery fall back to the full scan. The structs here are plain data
// so the codec lives below clio_core; conversion to/from
// EntrymapAccumulator and CatalogRecord happens in the volume layer.
#ifndef SRC_INDEX_CHECKPOINT_H_
#define SRC_INDEX_CHECKPOINT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/clio/types.h"
#include "src/index/extent_index.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/time.h"

namespace clio {

// One pending entrymap accumulator node: per-file bitmap bytes for the
// (level, home) group still being accumulated at checkpoint time.
struct AccumulatorNodeState {
  uint32_t level = 0;
  uint64_t home = 0;
  std::vector<std::pair<LogFileId, Bytes>> files;

  bool operator==(const AccumulatorNodeState&) const = default;
};

// One framed sidecar record; from == 1 makes it a base.
struct CheckpointRecord {
  uint32_t volume_index = 0;
  uint64_t from = 1;
  // First block NOT covered (the writer's staging block when it was
  // taken). Recovery replays [covered_end, end).
  uint64_t covered_end = 0;
  // Upper bound on every timestamp stamped into blocks below
  // covered_end; recovery floors the unique clock with it.
  Timestamp max_timestamp = 0;
  Bytes index_delta;  // ExtentIndex::EncodeSince(from)
  std::vector<AccumulatorNodeState> accumulator_nodes;
  // Encoded CatalogRecords: always in a base, in a delta only when the
  // catalog changed since the previous record.
  std::optional<std::vector<Bytes>> catalog_records;

  // Frames the record. A pending node that `previous` (the previous
  // record's set) also holds is written as a patch listing only the files
  // whose bitmap changed, so the wide upper-level nodes cost a few bytes
  // per delta. Decoding applies the patch to the previous record's node.
  Bytes Encode(std::span<const AccumulatorNodeState> previous = {}) const;
};

// The sidecar decoded and merged: what a restart restores.
struct CheckpointState {
  uint32_t volume_index = 0;
  uint64_t covered_end = 0;
  Timestamp max_timestamp = 0;
  ExtentIndex index;  // base + every delta
  std::vector<AccumulatorNodeState> accumulator_nodes;  // newest record's
  std::vector<Bytes> catalog_records;  // newest record carrying them

  // Decodes a base followed by deltas, each starting where the previous
  // one ended. Any damaged record fails the whole sidecar.
  static Result<CheckpointState> Decode(std::span<const std::byte> sidecar);
};

// A sidecar decode handed from the thread that runs it to the volume
// that consumes it (DESIGN.md §17). LogService::Recover decodes on the
// calling thread while a helper thread opens the volumes: the writable
// volume's Open joins the records at step 2 and the extent index, the
// bulk of the decode, only after replaying the suffix, so the decode
// overlaps the header and tail passes and the replay. The decoded
// state is allocated by the calling thread, which keeps the service.
class PendingCheckpoint {
 public:
  // `replay_pass_blocks` caps one device pass of the suffix replay: the
  // checkpoint interval the sidecar was written at, which bounds the
  // suffix a restart normally replays.
  explicit PendingCheckpoint(uint64_t replay_pass_blocks)
      : replay_pass_blocks_(replay_pass_blocks) {}

  // Decodes `sidecar`, publishing the records before the index. Called
  // once.
  void Decode(std::span<const std::byte> sidecar);

  // Block until the records, or the index too, are decoded. JoinState's
  // state has an empty `index`; either returns nullptr when its part did
  // not decode (a failed record fails both).
  const CheckpointState* JoinState();
  ExtentIndex* JoinIndex();

  // The time Decode took; valid once it returned.
  uint64_t decode_us() const { return decode_us_; }
  uint64_t replay_pass_blocks() const { return replay_pass_blocks_; }

 private:
  const uint64_t replay_pass_blocks_;
  std::mutex mu_;
  std::condition_variable published_;
  bool records_done_ = false;
  bool index_done_ = false;
  std::optional<CheckpointState> state_;
  std::optional<ExtentIndex> index_;
  uint64_t decode_us_ = 0;
};

}  // namespace clio

#endif  // SRC_INDEX_CHECKPOINT_H_
