#include "src/clio/verify.h"

#include <map>
#include <string>
#include <vector>

#include "src/clio/volume_walk.h"
#include "src/index/extent_index.h"

namespace clio {
namespace {

std::string Describe(int level, uint64_t home, LogFileId id, uint32_t bit) {
  return "level " + std::to_string(level) + " node@" + std::to_string(home) +
         " logfile " + std::to_string(id) + " bit " + std::to_string(bit);
}

}  // namespace

Result<VerifyReport> VerifyVolume(LogVolume* volume) {
  VerifyReport report;
  const EntrymapGeometry& geometry = volume->geometry();
  const uint64_t end = volume->end_including_staged();
  const Catalog* catalog = volume->catalog();

  // Pass 1: walk every block; mark its memberships into the nodes the
  // writer would build and index every entrymap node by its logical
  // (level, home) regardless of where it physically lives (displacement is
  // legal, §2.3.2).
  EntrymapAccumulator expected_nodes(&geometry);
  std::map<std::pair<int, uint64_t>, EntrymapPayload> nodes;
  std::optional<Timestamp> last_leading_ts;
  // The open fragment chain, followed by the reader's rule: verify reports
  // a broken chain exactly where the reader returns a truncated entry.
  std::optional<FragmentChain> fragments;
  auto broken = [&](const std::string& where) {
    report.broken_chains.push_back(
        "block " + std::to_string(fragments->base_block()) +
        "'s last entry continues but its fragment chain " + where);
    report.broken_chain_blocks.push_back(fragments->base_block());
    fragments.reset();
  };

  // Hash-chain walk (chained volumes): replay the writer's accumulator from
  // the header seed and check every valid block's stored tag against it.
  std::optional<uint64_t> seed;
  if (volume->header().chained()) {
    seed = volume->chain_seed();
  }
  ChainCheck chain(seed, /*from_seed=*/true);

  // Extent-index replica: rebuild what the RAM index must contain from the
  // same walk, by the writer's rule. Compared against the live index after
  // the walk.
  const uint64_t burned_end = volume->end_block();
  ExtentIndex expected_index;

  std::vector<LogFileId> ids;
  auto visit = [&](const WalkedBlock& w) {
    const uint64_t b = w.block;
    ++report.blocks_total;
    BlockMarkIds(*catalog, w, &ids);
    if (b < burned_end) {
      IndexBlock(&expected_index, w, ids);
    }
    const uint64_t expected_tag = chain.tag();
    switch (chain.Feed(w)) {
      case ChainCheck::Verdict::kUnchained:
        report.chain_mismatches.push_back(
            "block " + std::to_string(b) +
            " carries a v1 footer inside a chained volume");
        break;
      case ChainCheck::Verdict::kMismatch:
        report.chain_mismatches.push_back(
            "block " + std::to_string(b) + " stores chain tag " +
            std::to_string(*w.parsed->chain_tag()) + " but the chain expects " +
            std::to_string(expected_tag));
        break;
      case ChainCheck::Verdict::kOk:
        break;
    }
    if (fragments.has_value()) {
      const FragmentChain::Step step = fragments->Feed(w);
      if (step == FragmentChain::Step::kBroken) {
        broken("breaks before block " + std::to_string(b));
      } else if (!fragments->open()) {
        if (fragments->sealed()) {
          report.sealed_chain_blocks.push_back(fragments->base_block());
        }
        fragments.reset();
      }
    }
    if (w.kind == BlockKind::kInvalidated) {
      ++report.blocks_invalidated;
    } else if (w.kind == BlockKind::kGarbage) {
      ++report.blocks_corrupt;
      report.corrupt_blocks.push_back(b);
    }
    if (!w.parsed.has_value()) {
      return Status::Ok();
    }
    ++report.blocks_valid;
    const ParsedBlock& block = *w.parsed;

    if (!fragments.has_value()) {
      fragments = FragmentChain::From(b, block);
    }

    // Leading-timestamp monotonicity, with the one legal exception: a block
    // whose first entry is a continuation fragment inherits its *base*
    // entry's timestamp, which may dip below an entrymap entry stamped
    // while the chain was in flight. Such dips never confuse the time
    // search (it then brackets to the base's block, which is equivalent),
    // so only non-fragment-led blocks participate in the invariant.
    auto leading = block.FirstTimestamp();
    if (leading.has_value() && !block.entries().front().is_fragment()) {
      if (last_leading_ts.has_value() && *leading < *last_leading_ts) {
        report.time_regressions.push_back(
            "block " + std::to_string(b) + " leads with " +
            std::to_string(*leading) + " < previous " +
            std::to_string(*last_leading_ts));
      }
      last_leading_ts = leading;
    }

    if (!ids.empty()) {
      expected_nodes.Mark(b, ids);
    }
    for (const ParsedEntry& e : block.entries()) {
      ++report.entries_total;
      if (e.is_fragment()) {
        ++report.fragments_total;
      }
      if (e.logfile_id == kEntrymapLogId && !e.is_fragment()) {
        auto payload = EntrymapPayload::Decode(e.payload,
                                               geometry.bitmap_bytes());
        if (payload.ok()) {
          ++report.entrymap_nodes;
          auto key = std::make_pair(static_cast<int>(payload.value().level),
                                    payload.value().home_block);
          auto [it, inserted] = nodes.emplace(key, payload.value());
          if (!inserted) {
            for (auto& f : payload.value().files) {
              it->second.files.push_back(f);  // merge chunked nodes
            }
          }
        }
      }
      if (e.logfile_id == kCatalogLogId && !e.is_fragment()) {
        ++report.catalog_records;
      }
    }
    return Status::Ok();
  };
  auto read = [&](uint64_t b) { return volume->GetBlock(b, nullptr); };
  // A transient read is no verdict on the block: the error comes back
  // instead of a corrupt count.
  CLIO_RETURN_IF_ERROR(VolumeWalk(1, end).Run(read, visit));
  if (fragments.has_value()) {
    broken("runs past the end");
  }

  // Extent-index cross-check: only meaningful when the live index claims
  // authority over the whole burned prefix (a partially built or disabled
  // index is not a defect — searches fall back to the tree walk). The bar
  // is the entrymap's: the live index may carry STALE marks for blocks
  // invalidated out-of-band after burning (candidates are re-read, so
  // stale costs a read, never an answer), but anything the media holds
  // that the index lacks would hide entries from the fast path.
  if (const ExtentIndex* live = volume->extent_index();
      live != nullptr && live->covered_end() == burned_end &&
      expected_index.covered_end() == burned_end) {
    report.index_checked = true;
    if (!live->CoversAtLeast(expected_index)) {
      report.index_mismatches.push_back(
          "extent index misses state the media walk found (runs " +
          std::to_string(live->run_count()) + " vs expected " +
          std::to_string(expected_index.run_count()) + ", holes " +
          std::to_string(live->hole_count()) + " vs expected " +
          std::to_string(expected_index.hole_count()) + ")");
    }
  }

  // The recovered head tag was derived from the LAST block's stored tag
  // (an O(1) shortcut, src/clio/volume.cc); the full walk from the seed
  // must land on the same value. Only comparable when the walk stayed
  // synced and covered exactly the burned blocks (no staged tail).
  if (chain.synced() && end == volume->end_block() &&
      volume->chain_head_tag().has_value() &&
      chain.tag() != *volume->chain_head_tag()) {
    report.chain_mismatches.push_back(
        "recovered chain head " + std::to_string(*volume->chain_head_tag()) +
        " != walked chain head " + std::to_string(chain.tag()));
  }

  // Pass 2: compare every stored node's bitmaps with the node the writer's
  // accumulator builds from the walked blocks. A set bit without entries is
  // stale (tolerable); an entry without its bit is invisible to tree
  // searches (a defect).
  for (const auto& [key, node] : nodes) {
    const auto& [level, home] = key;
    if (level < 1 || level > geometry.max_level() ||
        home < geometry.PowN(level)) {
      report.stale_bits.push_back("malformed node at level " +
                                  std::to_string(level) + " home " +
                                  std::to_string(home));
      continue;
    }
    for (LogFileId id : expected_nodes.MarkedIds(level, home)) {
      const Bytes want = expected_nodes.BitmapOf(level, home, id);
      const EntrymapPayload::PerFile* stored = node.Find(id);
      for (uint32_t bit = 0; bit < geometry.degree(); ++bit) {
        if (EntrymapPayload::TestBit(want, bit) &&
            (stored == nullptr ||
             !EntrymapPayload::TestBit(stored->bitmap, bit))) {
          report.missing_bits.push_back(Describe(level, home, id, bit));
        }
      }
    }
    for (const auto& f : node.files) {
      const Bytes want = expected_nodes.BitmapOf(level, home, f.id);
      for (uint32_t bit = 0; bit < geometry.degree(); ++bit) {
        if (EntrymapPayload::TestBit(f.bitmap, bit) &&
            !EntrymapPayload::TestBit(want, bit)) {
          report.stale_bits.push_back(Describe(level, home, f.id, bit));
        }
      }
    }
  }
  return report;
}

}  // namespace clio
