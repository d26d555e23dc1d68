#include "src/clio/volume_walk.h"

#include <algorithm>
#include <utility>

#include "src/clio/chain.h"
#include "src/clio/entrymap.h"

namespace clio {
namespace {

BlockKind KindOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return BlockKind::kValid;
    case StatusCode::kInvalidated:
      return BlockKind::kInvalidated;
    case StatusCode::kCorrupt:
    case StatusCode::kNotWritten:
    case StatusCode::kFailedPrecondition:
      return BlockKind::kGarbage;
    default:
      return BlockKind::kTransient;
  }
}

}  // namespace

Result<std::optional<ParsedBlock>> ValidBlock(Result<ParsedBlock> read) {
  if (read.ok()) {
    return std::optional<ParsedBlock>(std::move(read).value());
  }
  if (read.status().code() == StatusCode::kUnavailable) {
    return read.status();
  }
  return std::optional<ParsedBlock>();
}

VolumeWalk VolumeWalk::Backward(uint64_t end, uint64_t depth) {
  VolumeWalk walk(end - 1, end - 1);
  walk.stop_ = end - 1 > depth ? end - 1 - depth : 0;
  walk.step_ = UINT64_MAX;
  return walk;
}

Status VolumeWalk::Run(const ReadFn& read, const VisitFn& visit,
                       uint64_t budget) {
  for (; !done() && budget > 0; --budget) {
    Result<ParsedBlock> got = read(next_);
    const StatusCode code = got.status().code();
    if (code == StatusCode::kOutOfRange) {
      stop_ = next_;  // past the burned end
      break;
    }
    const bool quarantined = code == StatusCode::kFailedPrecondition;
    WalkedBlock block{next_, KindOf(code), quarantined, std::nullopt};
    if (block.kind == BlockKind::kTransient) {
      return got.status();
    }
    if (got.ok()) {
      block.parsed = std::move(got).value();
    }
    CLIO_RETURN_IF_ERROR(visit(block));
    next_ += step_;
  }
  return Status::Ok();
}

WalkedBlock VolumeWalk::Skip() {
  WalkedBlock block{next_, BlockKind::kTransient, false, std::nullopt};
  next_ += step_;
  return block;
}

ChainCheck::Verdict ChainCheck::Feed(const WalkedBlock& block) {
  if (!chained_) {
    return Verdict::kOk;
  }
  if (!block.parsed.has_value()) {
    synced_ = false;
    return Verdict::kOk;
  }
  const std::optional<uint64_t> stored = block.parsed->chain_tag();
  if (!stored.has_value()) {
    synced_ = false;
    return Verdict::kUnchained;
  }
  const bool mismatch = synced_ && *stored != tag_;
  convicted_ = last_valid_.value_or(block.block);
  tag_ = AdvanceChainTag(*stored, ChainBlockCommit(*block.parsed));
  synced_ = true;
  last_valid_ = block.block;
  return mismatch ? Verdict::kMismatch : Verdict::kOk;
}

FragmentChain::FragmentChain(uint64_t block, const ParsedBlock& parsed)
    : base_block_(block),
      id_(parsed.entries().back().logfile_id),
      last_image_(parsed.shared_image()),
      last_tag_(parsed.chain_tag()) {}

std::optional<FragmentChain> FragmentChain::From(uint64_t block,
                                                 const ParsedBlock& parsed) {
  if (parsed.entries().empty() || !parsed.last_entry_continues() ||
      parsed.entries().back().is_fragment() || parsed.passes_chain_through()) {
    return std::nullopt;
  }
  return FragmentChain(block, parsed);
}

FragmentChain::Step FragmentChain::Feed(const WalkedBlock& block) {
  fragment_ = nullptr;
  if (!block.parsed.has_value()) {
    gap_ = true;
    return last_tag_.has_value() ? Step::kPass : Step::kBroken;
  }
  const ParsedBlock& next = *block.parsed;
  if (gap_) {
    // Re-parsed only here, so a chain read without a gap hashes nothing.
    Result<ParsedBlock> before = ParsedBlock::Parse(last_image_);
    if (!last_tag_.has_value() || !before.ok() ||
        next.chain_tag() !=
            AdvanceChainTag(*last_tag_, ChainBlockCommit(*before))) {
      return Step::kBroken;  // a valid block of the chain was lost
    }
  }
  gap_ = false;
  last_image_ = next.shared_image();
  last_tag_ = next.chain_tag();
  // The continuation is the block's first fragment of the entry's log
  // file: entrymap entries may precede it in a home block.
  for (size_t i = 0; i < next.entries().size(); ++i) {
    const ParsedEntry& e = next.entries()[i];
    if (e.is_fragment() && e.logfile_id == id_) {
      fragment_ = &e;
      open_ = i + 1 == next.entries().size() && next.last_entry_continues();
      sealed_ = !open_ && e.payload.empty();
      return Step::kFragment;
    }
  }
  return next.passes_chain_through() ? Step::kPass : Step::kBroken;
}

Result<std::optional<ParsedBlock>> OpenChainBefore(
    uint64_t end, const VolumeWalk::ReadFn& read) {
  std::optional<ParsedBlock> open;
  VolumeWalk back = VolumeWalk::Backward(end, VolumeWalk::kUnbounded);
  auto look = [&](const WalkedBlock& w) {
    if (w.parsed.has_value() && w.parsed->passes_chain_through()) {
      return Status::Ok();
    }
    if (w.parsed.has_value() && !w.parsed->entries().empty() &&
        w.parsed->last_entry_continues()) {
      open = w.parsed;
    }
    back.Stop();
    return Status::Ok();
  };
  CLIO_RETURN_IF_ERROR(back.Run(read, look));
  return open;
}

void BlockMarkIds(const Catalog& catalog, const WalkedBlock& block,
                  std::vector<LogFileId>* ids) {
  ids->clear();
  if (!block.parsed.has_value()) {
    return;
  }
  // An id joins with its whole ancestor chain, so a walk that reaches an
  // id already present has nothing left to add.
  auto add = [&](LogFileId member) {
    catalog.VisitSelfAndAncestors(member, [&](LogFileId id) {
      if (!EntrymapTracks(id)) {
        return true;
      }
      if (std::find(ids->begin(), ids->end(), id) != ids->end()) {
        return false;
      }
      ids->push_back(id);
      return true;
    });
  };
  for (const ParsedEntry& e : block.parsed->entries()) {
    add(e.logfile_id);
    for (LogFileId extra : e.extra_ids) {
      add(extra);
    }
  }
  std::sort(ids->begin(), ids->end());
}

void IndexBlock(ExtentIndex* index, const WalkedBlock& block,
                std::span<const LogFileId> ids) {
  if (block.parsed.has_value()) {
    index->MarkBlock(block.block, block.parsed->FirstTimestamp(), ids);
    return;
  }
  if (block.kind == BlockKind::kGarbage) {
    index->AddHole(block.block);
  }
  index->AdvanceCoveredEnd(block.block + 1);
}

}  // namespace clio
