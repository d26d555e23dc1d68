#include "src/clio/chain.h"

#include <cstring>

namespace clio {
namespace {

constexpr char kBlockDomain[] = "clio.block.v2";

uint64_t Trunc8(const Sha256Digest& d) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(d[i]);
  }
  return v;
}

// Streams a block commit: the domain and footer fields, then one record
// digest at a time.
class CommitHasher {
 public:
  CommitHasher(uint16_t count, uint16_t flags, uint16_t used) {
    std::byte fields[6];
    StoreU16(fields, 0, count);
    StoreU16(fields, 2, flags);
    StoreU16(fields, 4, used);
    h_.Update(AsBytes(kBlockDomain));
    h_.Update(fields);
  }
  void AddRecordHash(const Sha256Digest& digest) { h_.Update(digest); }
  void AddRecord(std::span<const std::byte> record) {
    AddRecordHash(ChainRecordHash(record));
  }
  Sha256Digest Finish() { return h_.Finish(); }

 private:
  Sha256 h_;
};

}  // namespace

uint64_t ChainSeed(std::span<const std::byte> header_block) {
  return Trunc8(Sha256Of(header_block));
}

Sha256Digest ChainRecordHash(std::span<const std::byte> record) {
  return Sha256Of(record);
}

Sha256Digest ChainBlockCommitFromParts(
    uint16_t count, uint16_t flags, uint16_t used,
    std::span<const Sha256Digest> record_hashes) {
  CommitHasher h(count, flags, used);
  for (const Sha256Digest& d : record_hashes) {
    h.AddRecordHash(d);
  }
  return h.Finish();
}

Sha256Digest ChainBlockCommit(const ParsedBlock& block) {
  CommitHasher h(static_cast<uint16_t>(block.entries().size()), block.flags(),
                 block.used_bytes());
  std::span<const std::byte> image(block.image());
  for (const ParsedEntry& e : block.entries()) {
    h.AddRecord(image.subspan(e.offset, e.record_size));
  }
  return h.Finish();
}

Sha256Digest ChainBlockCommit(const BlockBuilder& builder) {
  std::span<const std::byte> records = builder.records();
  CommitHasher h(static_cast<uint16_t>(builder.record_sizes().size()),
                 builder.flags(), static_cast<uint16_t>(records.size()));
  for (uint16_t size : builder.record_sizes()) {
    h.AddRecord(records.first(size));
    records = records.subspan(size);
  }
  return h.Finish();
}

uint64_t AdvanceChainTag(uint64_t tag, const Sha256Digest& commit) {
  Sha256 h;
  std::byte le[8];
  StoreU64(le, 0, tag);
  h.Update(le);
  h.Update(commit);
  return Trunc8(h.Finish());
}

void ChainProof::EncodeTo(ByteWriter& w) const {
  w.PutU32(volume_index);
  w.PutU64(block);
  w.PutU32(entry_index);
  w.PutU16(count);
  w.PutU16(flags);
  w.PutU16(used);
  w.PutU64(prev_tag);
  w.PutU32(static_cast<uint32_t>(record.size()));
  w.PutBytes(record);
  w.PutU32(static_cast<uint32_t>(record_hashes.size()));
  for (const Sha256Digest& d : record_hashes) {
    w.PutBytes(d);
  }
  w.PutU32(static_cast<uint32_t>(links.size()));
  for (const Sha256Digest& d : links) {
    w.PutBytes(d);
  }
  w.PutU64(head_tag);
  w.PutU64(head_block);
}

Result<ChainProof> ChainProof::DecodeFrom(ByteReader& r) {
  ChainProof p;
  p.volume_index = r.GetU32();
  p.block = r.GetU64();
  p.entry_index = r.GetU32();
  p.count = r.GetU16();
  p.flags = r.GetU16();
  p.used = r.GetU16();
  p.prev_tag = r.GetU64();
  uint32_t record_len = r.GetU32();
  if (r.failed() || record_len > 0xFFFF || record_len > r.remaining()) {
    return Corrupt("chain proof record framing");
  }
  auto rec = r.GetBytes(record_len);
  p.record.assign(rec.begin(), rec.end());
  uint32_t hash_count = r.GetU32();
  if (r.failed() || hash_count > 0xFFFF ||
      static_cast<uint64_t>(hash_count) * 32 > r.remaining()) {
    return Corrupt("chain proof hash list framing");
  }
  p.record_hashes.resize(hash_count);
  for (uint32_t i = 0; i < hash_count; ++i) {
    auto d = r.GetBytes(32);
    std::memcpy(p.record_hashes[i].data(), d.data(), 32);
  }
  uint32_t link_count = r.GetU32();
  if (r.failed() || link_count > kMaxProofLinks ||
      static_cast<uint64_t>(link_count) * 32 > r.remaining()) {
    return Corrupt("chain proof link list framing");
  }
  p.links.resize(link_count);
  for (uint32_t i = 0; i < link_count; ++i) {
    auto d = r.GetBytes(32);
    std::memcpy(p.links[i].data(), d.data(), 32);
  }
  p.head_tag = r.GetU64();
  p.head_block = r.GetU64();
  if (r.failed()) {
    return Corrupt("chain proof truncated");
  }
  return p;
}

Result<ParsedEntry> ChainProof::Verify() const {
  if (entry_index >= record_hashes.size() ||
      record_hashes.size() != count) {
    return Corrupt("chain proof entry index out of range");
  }
  CLIO_ASSIGN_OR_RETURN(ParsedEntry entry, ParseEntryRecord(record));
  // The proven record must hash to the digest the block commits to at the
  // claimed ordinal — this binds the record bytes to the block.
  if (ChainRecordHash(record) != record_hashes[entry_index]) {
    return Corrupt("chain proof record hash mismatch");
  }
  Sha256Digest commit =
      ChainBlockCommitFromParts(count, flags, used, record_hashes);
  uint64_t tag = AdvanceChainTag(prev_tag, commit);
  for (const Sha256Digest& link : links) {
    tag = AdvanceChainTag(tag, link);
  }
  if (tag != head_tag) {
    return Corrupt("chain proof does not link to the head tag");
  }
  return entry;
}

}  // namespace clio
