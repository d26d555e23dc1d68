// One volume walk (DESIGN.md §15, "What a block read says"): the single
// place that turns a block read into a kind, and the rules every walk
// over a volume applies to the kinds. Recovery (the trailing-block
// checks, the catalog walk, the entrymap tail rebuild, the checkpoint
// replay), the entrymap search's probe for a displaced node, the extent
// index rebuild, VerifyVolume, the scrubber, the fragment reader, the
// writer's stranded-chain seal and the chain proof all walk through it:
//
//  - BlockKind is the classification (§2.3.2: readers skip garbage and
//    invalidated blocks; a transient read is no verdict on the block and
//    goes back to the caller, never skipped);
//  - VolumeWalk is a resumable cursor over a block range, read through a
//    function the caller passes in, within a budget;
//  - ChainCheck is the hash-chain accumulator and its resync rule;
//  - FragmentChain is the rule for crossing a skipped block;
//  - BlockMarkIds and IndexBlock are the membership set and the
//    extent-index replica rule the writer applies at burn time.
#ifndef SRC_CLIO_VOLUME_WALK_H_
#define SRC_CLIO_VOLUME_WALK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/clio/block_format.h"
#include "src/clio/catalog.h"
#include "src/index/extent_index.h"
#include "src/util/status.h"

namespace clio {

enum class BlockKind : uint8_t {
  kValid,        // parsed
  kInvalidated,  // burned to all 1s on purpose: skipped, nothing lost
  // kCorrupt, quarantined (ProbeBlock's kFailedPrecondition too), or
  // kNotWritten below the end: skipped, its data lost.
  kGarbage,
  // kUnavailable, or any other error that judges the read, not the block.
  kTransient,
};

// One read outside a walk: the block when valid, the read's error when
// it is kUnavailable (transient: a retry reads the block again), else
// nullopt, a block readers skip. A single read has no range to end, so
// kOutOfRange is skipped too, as the search fallbacks always did.
Result<std::optional<ParsedBlock>> ValidBlock(Result<ParsedBlock> read);

struct WalkedBlock {
  uint64_t block = 0;
  BlockKind kind = BlockKind::kTransient;
  // Garbage whose verdict is already recorded (ProbeBlock's answer).
  bool quarantined = false;
  // Set iff kind == kValid.
  std::optional<ParsedBlock> parsed;
};

// A resumable cursor over a block range. Each block is read through the
// caller's function, classified, and handed to the visitor; a transient
// read stops the walk on its block instead.
class VolumeWalk {
 public:
  using ReadFn = std::function<Result<ParsedBlock>(uint64_t block)>;
  using VisitFn = std::function<Status(const WalkedBlock& block)>;
  static constexpr uint64_t kUnbounded = UINT64_MAX;

  // Forward over [from, end). A read answering kOutOfRange ends the walk
  // there, so kUnbounded walks up to a burned end that may still move.
  VolumeWalk(uint64_t from, uint64_t end)
      : next_(from), stop_(std::max(from, end)) {}
  // Backward from block end - 1 over at most `depth` blocks, never
  // reaching the header block 0.
  static VolumeWalk Backward(uint64_t end, uint64_t depth);

  uint64_t next() const { return next_; }
  bool done() const { return next_ == stop_; }
  // Ends the walk after the block being visited.
  void Stop() { stop_ = next_ + step_; }

  // Visits blocks until the range ends, `budget` blocks were visited or a
  // visitor fails. A transient read returns its error and leaves the
  // cursor on its block, to be read again or Skip()ped.
  Status Run(const ReadFn& read, const VisitFn& visit,
             uint64_t budget = kUnbounded);

  // Gives up on the transient block at the cursor: moves past it and
  // returns it, kind kTransient, for the caller to visit.
  WalkedBlock Skip();

 private:
  uint64_t next_;
  uint64_t stop_;
  uint64_t step_ = 1;  // UINT64_MAX (wrapping -1) walks backward
};

// The hash chain over a walk (§15). A valid block's stored tag must equal
// the tag accumulated from the seed over the valid blocks before it. Any
// other block desyncs the check: a burn-retry garbage block never
// advanced the writer's chain, but an invalidated or unreadable block may
// have, and the media cannot tell them apart. The next valid block's
// stored tag resyncs it, so one break is reported once.
class ChainCheck {
 public:
  enum class Verdict { kOk, kMismatch, kUnchained };

  // `seed` is nullopt on an unchained volume, where every verdict is kOk.
  // A walk from block 1 starts synced at the seed; a resumed walk
  // (`from_seed` false) adopts the first valid block's stored tag.
  ChainCheck(std::optional<uint64_t> seed, bool from_seed)
      : chained_(seed.has_value()),
        synced_(chained_ && from_seed),
        tag_(seed.value_or(0)) {}

  // kUnchained: a valid block with a v1 footer inside a chained volume.
  // kMismatch: the stored tag is not tag(); convicted() names the last
  // valid block before it, whose commit fed the accumulator (the block
  // itself when there is none).
  Verdict Feed(const WalkedBlock& block);

  bool synced() const { return synced_; }
  uint64_t tag() const { return tag_; }  // what the next valid block stores
  uint64_t convicted() const { return convicted_; }

 private:
  bool chained_;
  bool synced_;
  uint64_t tag_;
  uint64_t convicted_ = 0;
  std::optional<uint64_t> last_valid_;
};

// An entry's fragment chain (§2.1) across the blocks after the valid block
// whose last entry continues, and the one rule for crossing a skipped block
// (§15): after a valid block, a chain crosses invalidated, garbage or
// quarantined blocks only if no valid block was lost among them, that is,
// if the next valid block stores AdvanceChainTag over the block before the
// gap (the commit is hashed only at a gap). A v1 block's chain ends at a
// gap. Entrymap-only blocks flagged last-entry-continues pass the chain
// through. The reader, VerifyVolume and the writer's stranded-chain seal
// follow chains with it; a transient read stops the caller's walk first.
class FragmentChain {
 public:
  enum class Step {
    kPass,      // a skipped or pass-through block: walk on
    kFragment,  // fragment() continues the entry; done unless open()
    kBroken,    // the chain cannot reach this block: the entry is truncated
  };

  // The chain the last entry of valid block `block` opens, or nullopt when
  // it opens none. Only an entry's own block opens its chain: a fragment
  // opens none, so one whose chain broke before it is reached by no one.
  static std::optional<FragmentChain> From(uint64_t block,
                                           const ParsedBlock& parsed);

  // Feeds the next block of a forward walk.
  Step Feed(const WalkedBlock& block);

  uint64_t base_block() const { return base_block_; }
  // True until the entry's last fragment was fed.
  bool open() const { return open_; }
  // The last fragment was empty. Appends put at least one byte in every
  // fragment, so only the stranded-chain seal writes one: the entry lost
  // its tail at a crash and reads back truncated.
  bool sealed() const { return sealed_; }
  // After kFragment: the continuation, pointing into the block fed.
  const ParsedEntry& fragment() const { return *fragment_; }

 private:
  FragmentChain(uint64_t block, const ParsedBlock& parsed);

  uint64_t base_block_;
  LogFileId id_;
  // The chain's latest valid block, hashed only if a gap follows it.
  BlockImage last_image_;
  std::optional<uint64_t> last_tag_;
  bool gap_ = false;  // skipped blocks since last_image_
  bool open_ = true;
  bool sealed_ = false;
  const ParsedEntry* fragment_ = nullptr;
};

// The valid block whose open fragment chain the volume's next burn must
// continue: walking back from `end` over pass-through blocks, the first
// other block, if it is valid and its last entry continues. A skipped
// block ends the search with nullopt: the chain head a restart derives
// from the last valid block cannot show whether a valid block was lost at
// the tail, so no chain is continued across one. A transient read
// returns its error.
Result<std::optional<ParsedBlock>> OpenChainBefore(
    uint64_t end, const VolumeWalk::ReadFn& read);

// A valid block's tracked memberships, each entry's log file and extra
// ids with their ancestors, exactly as the writer fed them to the
// accumulator and the extent index at burn time (sorted, deduplicated).
// Empty for every other kind. Replaces `*ids`, so a walk reuses one
// vector's storage.
void BlockMarkIds(const Catalog& catalog, const WalkedBlock& block,
                  std::vector<LogFileId>* ids);

// The extent-index replica rule (§17): a valid block is marked with
// `ids`, an invalidated one only advances coverage (the writer skipped it
// too), garbage becomes a hole.
void IndexBlock(ExtentIndex* index, const WalkedBlock& block,
                std::span<const LogFileId> ids);

}  // namespace clio

#endif  // SRC_CLIO_VOLUME_WALK_H_
