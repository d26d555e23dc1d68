// Volume hash chain: tamper evidence for burned blocks (DESIGN.md §15).
//
// Every v2 (chained) block's footer carries an 8-byte CHAIN TAG — the
// accumulated digest over every VALID block burned before it, seeded from
// the volume header image:
//
//   seed   = trunc8(SHA256(header block image))
//   commit = SHA256("clio.block.v2" || count || flags || used
//                   || SHA256(record_1) || ... || SHA256(record_k))
//   tag_i  = trunc8(SHA256(LE64(tag_{i-1}) || commit_i))
//
// Invalidated blocks (all 1s), garbage burns, and corrupt blocks never
// advance the chain: a burn retry re-burns the SAME image — including its
// already-fixed predecessor tag — on the next block, so the chain walks
// the subsequence of valid blocks exactly as readers do (§2.3.2).
//
// The tag a block stores covers its PREDECESSORS, so the block's own
// content is covered by its successor's tag (and, for the newest block,
// by the writer's in-memory accumulator, which a VERIFY_CHAIN reply
// reports as the head tag). A single flipped bit is already caught by the
// block CRC; the chain additionally catches consistent forgeries — a
// re-burned block with a recomputed CRC — because the forged commit no
// longer matches the successor's stored tag.
//
// ChainProof is the wire form of a single-entry inclusion proof: the
// entry's raw record plus every record hash of its block (enough to
// recompute the block commit) plus the commit of every later valid block
// up to the chain head. A client verifies the whole path with no access
// to the volume.
#ifndef SRC_CLIO_CHAIN_H_
#define SRC_CLIO_CHAIN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/clio/block_format.h"
#include "src/util/bytes.h"
#include "src/util/sha256.h"
#include "src/util/status.h"

namespace clio {

// Server-side cap on proof length (valid blocks between the proven block
// and the head). At 32 bytes per link this bounds a proof near 2 MiB.
constexpr uint32_t kMaxProofLinks = 65536;

// Chain seed for a volume: trunc8 of the header block image's digest.
uint64_t ChainSeed(std::span<const std::byte> header_block);

// Digest of one packed entry record (header + payload bytes).
Sha256Digest ChainRecordHash(std::span<const std::byte> record);

// Block commit from its already-computed parts (proof verification path).
Sha256Digest ChainBlockCommitFromParts(
    uint16_t count, uint16_t flags, uint16_t used,
    std::span<const Sha256Digest> record_hashes);

// Block commit of a parsed block (scrubber / verifier / proof path).
Sha256Digest ChainBlockCommit(const ParsedBlock& block);

// Block commit of the image `builder.Finish()` returns, computed from the
// builder's own records (writer path): equal to ChainBlockCommit of that
// image parsed, without building or parsing it.
Sha256Digest ChainBlockCommit(const BlockBuilder& builder);

// tag' = trunc8(SHA256(LE64(tag) || commit)).
uint64_t AdvanceChainTag(uint64_t tag, const Sha256Digest& commit);

// Single-entry inclusion proof (kVerifyChain reply payload).
struct ChainProof {
  uint32_t volume_index = 0;
  uint64_t block = 0;        // device block holding the proven record
  uint32_t entry_index = 0;  // ordinal within that block
  uint16_t count = 0;        // the block's entry count / flags / used bytes
  uint16_t flags = 0;
  uint16_t used = 0;
  uint64_t prev_tag = 0;     // chain tag stored in the proven block
  Bytes record;              // the proven entry's raw record bytes
  std::vector<Sha256Digest> record_hashes;  // all k hashes of the block
  std::vector<Sha256Digest> links;  // commits of later valid blocks, in order
  uint64_t head_tag = 0;    // writer's accumulator after the last link
  uint64_t head_block = 0;  // block index the head tag covers through

  void EncodeTo(ByteWriter& w) const;
  static Result<ChainProof> DecodeFrom(ByteReader& r);

  // Client-side verification, trusting nothing but the proof itself and
  // (optionally) a head tag learned out of band: recomputes the record
  // hash, checks it against the block's listed hashes, reassembles the
  // block commit, and advances the chain through every link, requiring
  // the result to equal head_tag. Returns the decoded proven entry so the
  // caller can check its timestamp and payload. kCorrupt on any mismatch.
  Result<ParsedEntry> Verify() const;
};

}  // namespace clio

#endif  // SRC_CLIO_CHAIN_H_
