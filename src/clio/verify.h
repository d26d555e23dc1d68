// Volume verification (fsck for log volumes).
//
// Walks a volume end to end and cross-checks every redundant structure the
// design maintains:
//  - block framing: every written block parses, is invalidated, or is
//    flagged as corrupt;
//  - timestamp monotonicity of block-leading timestamps (§2.1's invariant
//    behind the time search);
//  - entrymap consistency: the bitmaps stored in level-1..k nodes are
//    recomputed from the blocks they cover and compared — a stored bit
//    with no matching entries (stale) or entries with no stored bit
//    (dangerous: searches would miss them) are both reported;
//  - catalog replay: every catalog record decodes and applies;
//  - fragment chains: every continues-flag is satisfied by a following
//    fragment the chain reaches by the reader's crossing rule
//    (src/clio/volume_walk.h), so a chain is reported broken exactly
//    where the reader returns a truncated entry;
//  - hash chain (chained volumes): every valid block's stored chain tag
//    equals the tag accumulated from the volume-header seed over the
//    valid blocks before it (src/clio/chain.h) — this is the offline form
//    of the online scrubber's walk and catches consistent forgeries a CRC
//    cannot;
//  - extent index (§17): when the volume carries a RAM extent index that
//    claims full coverage of the burned prefix, an index rebuilt from this
//    walk must match it byte for byte — the entrymap tree and the media
//    stay the source of truth, the index is only a cache.
#ifndef SRC_CLIO_VERIFY_H_
#define SRC_CLIO_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/clio/volume.h"

namespace clio {

struct VerifyReport {
  uint64_t blocks_total = 0;
  uint64_t blocks_valid = 0;
  uint64_t blocks_invalidated = 0;
  uint64_t blocks_corrupt = 0;
  std::vector<uint64_t> corrupt_blocks;  // the garbage blocks, in order
  uint64_t entries_total = 0;
  uint64_t fragments_total = 0;
  uint64_t entrymap_nodes = 0;
  uint64_t catalog_records = 0;

  // Extent-index cross-check (§17). `index_checked` is true when the
  // volume exposed an index covering the whole burned prefix and the
  // comparison actually ran; mismatches are defects.
  bool index_checked = false;

  // Inconsistencies, most severe first. Empty = clean volume.
  std::vector<std::string> missing_bits;   // entries invisible to searches
  std::vector<std::string> stale_bits;     // bits with nothing behind them
  // Unsatisfied continues-flags, each naming the entry's block first.
  std::vector<std::string> broken_chains;
  std::vector<uint64_t> broken_chain_blocks;  // each one's entry block
  // Entries a crash cut short and restart sealed (FragmentChain::sealed),
  // by entry block. They read back truncated, but the media is whole: not
  // damage.
  std::vector<uint64_t> sealed_chain_blocks;
  std::vector<std::string> time_regressions;
  std::vector<std::string> chain_mismatches;  // hash-chain violations (§15)
  std::vector<std::string> index_mismatches;  // extent-index drift (§17)

  // A volume with corrupt (unreadable but not deliberately invalidated)
  // blocks is NOT clean: their data is lost even though readers skip them.
  bool clean() const {
    return blocks_corrupt == 0 && missing_bits.empty() &&
           broken_chains.empty() && time_regressions.empty() &&
           chain_mismatches.empty() && index_mismatches.empty();
  }
};

// Verifies an opened volume. Stale bits are tolerated (the entrymap is a
// conservative cache; displacement and invalidation legitimately leave
// them); missing bits, broken chains and time regressions are defects.
// The walk classifies blocks as every other volume walk does
// (src/clio/volume_walk.h); a transient read returns its error.
Result<VerifyReport> VerifyVolume(LogVolume* volume);

}  // namespace clio

#endif  // SRC_CLIO_VERIFY_H_
