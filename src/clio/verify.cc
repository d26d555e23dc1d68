#include "src/clio/verify.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/clio/chain.h"
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

  // Pass 1: walk every block; build per-block membership sets and index
  // every entrymap node by its logical (level, home) regardless of where it
  // physically lives (displacement is legal, §2.3.2).
  std::map<uint64_t, std::set<LogFileId>> members_of;  // block -> log files
  std::map<std::pair<int, uint64_t>, EntrymapPayload> nodes;
  std::optional<Timestamp> last_leading_ts;
  bool pending_continue = false;
  uint64_t continue_from = 0;

  // Hash-chain walk (chained volumes): replay the writer's accumulator from
  // the header seed and check every valid block's stored tag against it.
  // Any gap desyncs the walk: a burn-retry garbage block never advanced
  // the chain, but a post-burn invalidation or an unreadable (corrupt /
  // quarantined) block DID advance it when burned, and the two are
  // indistinguishable from the media — so the walk resynchronizes from the
  // next valid block's stored tag instead of blaming every survivor.
  const bool chained = volume->header().chained();
  uint64_t chain_acc = volume->chain_seed();
  bool chain_synced = chained;

  // Extent-index replica: rebuild what the RAM index must contain from the
  // same walk, using the writer's classification rules — invalidated blocks
  // advance coverage silently (the writer never marked them), unreadable
  // blocks become holes. Compared against the live index after the walk.
  const uint64_t burned_end = volume->end_block();
  ExtentIndex expected_index;

  for (uint64_t b = 1; b < end; ++b) {
    ++report.blocks_total;
    OpStats stats;
    auto parsed = volume->GetBlock(b, &stats);
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kInvalidated) {
        ++report.blocks_invalidated;
      } else {
        ++report.blocks_corrupt;
        if (b < burned_end) {
          expected_index.AddHole(b);
        }
      }
      if (b < burned_end) {
        expected_index.AdvanceCoveredEnd(b + 1);
      }
      chain_synced = false;  // can't check across a gap (see above)
      continue;  // an invalid block legitimately breaks a fragment chain
    }
    ++report.blocks_valid;
    const ParsedBlock& block = parsed.value();

    if (chained) {
      if (!block.chain_tag().has_value()) {
        report.chain_mismatches.push_back(
            "block " + std::to_string(b) +
            " carries a v1 footer inside a chained volume");
        chain_synced = false;
      } else {
        if (chain_synced && *block.chain_tag() != chain_acc) {
          report.chain_mismatches.push_back(
              "block " + std::to_string(b) + " stores chain tag " +
              std::to_string(*block.chain_tag()) + " but the chain expects " +
              std::to_string(chain_acc));
        }
        // Resynchronize from the stored tag so one break is reported once.
        chain_acc = AdvanceChainTag(*block.chain_tag(), ChainBlockCommit(block));
        chain_synced = true;
      }
    }

    if (pending_continue) {
      bool satisfied = false;
      for (const ParsedEntry& e : block.entries()) {
        if (e.is_fragment()) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && !block.passes_chain_through()) {
        report.broken_chains.push_back(
            "block " + std::to_string(continue_from) +
            " continues but block " + std::to_string(b) +
            " holds no fragment");
      }
      pending_continue = false;
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

    for (const ParsedEntry& e : block.entries()) {
      ++report.entries_total;
      if (e.is_fragment()) {
        ++report.fragments_total;
      }
      for (LogFileId id : catalog->SelfAndAncestors(e.logfile_id)) {
        if (EntrymapTracks(id)) {
          members_of[b].insert(id);
        }
      }
      for (LogFileId extra : e.extra_ids) {
        for (LogFileId id : catalog->SelfAndAncestors(extra)) {
          if (EntrymapTracks(id)) {
            members_of[b].insert(id);
          }
        }
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
    if (b < burned_end) {
      std::vector<LogFileId> ids;
      auto it = members_of.find(b);
      if (it != members_of.end()) {
        ids.assign(it->second.begin(), it->second.end());
      }
      expected_index.MarkBlock(b, block.FirstTimestamp(), ids);
    }
    if (block.last_entry_continues()) {
      pending_continue = true;
      continue_from = b;
    }
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
  if (chained && chain_synced && end == volume->end_block() &&
      volume->chain_head_tag().has_value() &&
      chain_acc != *volume->chain_head_tag()) {
    report.chain_mismatches.push_back(
        "recovered chain head " + std::to_string(*volume->chain_head_tag()) +
        " != walked chain head " + std::to_string(chain_acc));
  }

  // Pass 2: recompute every stored node's bitmaps from the blocks it
  // covers and compare. A set bit without entries is stale (tolerable); an
  // entry without its bit is invisible to tree searches (a defect).
  for (const auto& [key, node] : nodes) {
    const auto& [level, home] = key;
    if (level < 1 || level > geometry.max_level() ||
        home < geometry.PowN(level)) {
      report.stale_bits.push_back("malformed node at level " +
                                  std::to_string(level) + " home " +
                                  std::to_string(home));
      continue;
    }
    uint64_t group_start = home - geometry.PowN(level);
    uint64_t sub = geometry.PowN(level - 1);
    // expected[id] bitmap.
    std::map<LogFileId, std::vector<bool>> expected;
    for (uint32_t bit = 0; bit < geometry.degree(); ++bit) {
      uint64_t lo = group_start + bit * sub;
      for (uint64_t b = lo; b < lo + sub && b < end; ++b) {
        auto it = members_of.find(b);
        if (it == members_of.end()) {
          continue;
        }
        for (LogFileId id : it->second) {
          auto& bits = expected[id];
          bits.resize(geometry.degree(), false);
          bits[bit] = true;
        }
      }
    }
    for (const auto& [id, bits] : expected) {
      const EntrymapPayload::PerFile* stored = node.Find(id);
      for (uint32_t bit = 0; bit < geometry.degree(); ++bit) {
        bool want = bits[bit];
        bool have = stored != nullptr &&
                    EntrymapPayload::TestBit(stored->bitmap, bit);
        if (want && !have) {
          report.missing_bits.push_back(Describe(level, home, id, bit));
        }
      }
    }
    for (const auto& f : node.files) {
      auto it = expected.find(f.id);
      for (uint32_t bit = 0; bit < geometry.degree(); ++bit) {
        if (EntrymapPayload::TestBit(f.bitmap, bit) &&
            (it == expected.end() || !it->second[bit])) {
          report.stale_bits.push_back(Describe(level, home, f.id, bit));
        }
      }
    }
  }
  return report;
}

}  // namespace clio
