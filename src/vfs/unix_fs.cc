#include "src/vfs/unix_fs.h"

#include <algorithm>
#include <set>
#include <utility>

namespace clio {
namespace {

constexpr uint32_t kSuperMagic = 0x55465331;  // "UFS1"
constexpr uint32_t kInodeSize = 128;
constexpr uint32_t kDirectPointers = 10;
constexpr uint32_t kRootInode = 1;

constexpr uint16_t kModeFree = 0;
constexpr uint16_t kModeFile = 1;
constexpr uint16_t kModeDir = 2;

}  // namespace

struct UnixFs::Inode {
  uint16_t mode = kModeFree;
  uint64_t size = 0;
  uint32_t allocated = 0;
  uint32_t direct[kDirectPointers] = {};
  uint32_t indirect = 0;
  uint32_t dindirect = 0;
  uint32_t tindirect = 0;

  void EncodeTo(std::span<std::byte> out) const {
    StoreU16(out, 0, mode);
    StoreU64(out, 2, size);
    StoreU32(out, 10, allocated);
    for (uint32_t i = 0; i < kDirectPointers; ++i) {
      StoreU32(out, 14 + 4 * i, direct[i]);
    }
    StoreU32(out, 54, indirect);
    StoreU32(out, 58, dindirect);
    StoreU32(out, 62, tindirect);
  }
  static Inode DecodeFrom(std::span<const std::byte> in) {
    Inode inode;
    inode.mode = LoadU16(in, 0);
    inode.size = LoadU64(in, 2);
    inode.allocated = LoadU32(in, 10);
    for (uint32_t i = 0; i < kDirectPointers; ++i) {
      inode.direct[i] = LoadU32(in, 14 + 4 * i);
    }
    inode.indirect = LoadU32(in, 54);
    inode.dindirect = LoadU32(in, 58);
    inode.tindirect = LoadU32(in, 62);
    return inode;
  }
};

UnixFs::UnixFs(RewritableBlockDevice* device, BlockCache* cache,
               uint64_t cache_device_id)
    : device_(device),
      cache_(cache),
      cache_device_id_(cache_device_id),
      block_size_(device->block_size()) {}

Result<std::unique_ptr<UnixFs>> UnixFs::Format(RewritableBlockDevice* device,
                                               BlockCache* cache,
                                               uint64_t cache_device_id,
                                               const FormatOptions& options) {
  if (device->block_size() < 256) {
    return InvalidArgument("UnixFs requires blocks of at least 256 bytes");
  }
  std::unique_ptr<UnixFs> fs(new UnixFs(device, cache, cache_device_id));
  const uint32_t bs = fs->block_size_;
  const uint64_t nblocks = device->capacity_blocks();

  fs->inode_count_ = options.inode_count;
  fs->bitmap_start_ = 1;
  fs->bitmap_blocks_ =
      static_cast<uint32_t>((nblocks + 8 * bs - 1) / (8 * bs));
  fs->inode_table_start_ = fs->bitmap_start_ + fs->bitmap_blocks_;
  uint32_t inodes_per_block = bs / kInodeSize;
  fs->inode_table_blocks_ =
      (fs->inode_count_ + inodes_per_block - 1) / inodes_per_block;
  fs->data_start_ = fs->inode_table_start_ + fs->inode_table_blocks_;
  if (fs->data_start_ >= nblocks) {
    return NoSpace("device too small for UnixFs metadata");
  }

  // Superblock.
  Bytes super(bs, std::byte{0});
  StoreU32(super, 0, kSuperMagic);
  StoreU32(super, 4, bs);
  StoreU32(super, 8, fs->inode_count_);
  StoreU32(super, 12, fs->bitmap_start_);
  StoreU32(super, 16, fs->bitmap_blocks_);
  StoreU32(super, 20, fs->inode_table_start_);
  StoreU32(super, 24, fs->inode_table_blocks_);
  StoreU32(super, 28, fs->data_start_);
  CLIO_RETURN_IF_ERROR(device->WriteBlock(0, super));

  // Bitmap: metadata blocks pre-marked used.
  fs->bitmap_.assign(fs->bitmap_blocks_ * bs, 0);
  for (uint32_t b = 0; b < fs->data_start_; ++b) {
    fs->bitmap_[b / 8] |= static_cast<uint8_t>(1u << (b % 8));
  }
  CLIO_RETURN_IF_ERROR(fs->FlushBitmap());

  // Zeroed inode table.
  Bytes zero(bs, std::byte{0});
  for (uint32_t b = 0; b < fs->inode_table_blocks_; ++b) {
    CLIO_RETURN_IF_ERROR(
        device->WriteBlock(fs->inode_table_start_ + b, zero));
  }

  // Root directory.
  Inode root;
  root.mode = kModeDir;
  CLIO_RETURN_IF_ERROR(fs->PutInode(kRootInode, root));
  return fs;
}

Result<std::unique_ptr<UnixFs>> UnixFs::Mount(RewritableBlockDevice* device,
                                              BlockCache* cache,
                                              uint64_t cache_device_id) {
  std::unique_ptr<UnixFs> fs(new UnixFs(device, cache, cache_device_id));
  CLIO_RETURN_IF_ERROR(fs->LoadSuper());
  return fs;
}

Status UnixFs::LoadSuper() {
  Bytes super(block_size_);
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(0, super));
  if (LoadU32(super, 0) != kSuperMagic) {
    return Corrupt("bad UnixFs superblock magic");
  }
  if (LoadU32(super, 4) != block_size_) {
    return Corrupt("superblock block size disagrees with device");
  }
  inode_count_ = LoadU32(super, 8);
  bitmap_start_ = LoadU32(super, 12);
  bitmap_blocks_ = LoadU32(super, 16);
  inode_table_start_ = LoadU32(super, 20);
  inode_table_blocks_ = LoadU32(super, 24);
  data_start_ = LoadU32(super, 28);

  bitmap_.assign(bitmap_blocks_ * block_size_, 0);
  Bytes block(block_size_);
  for (uint32_t b = 0; b < bitmap_blocks_; ++b) {
    CLIO_RETURN_IF_ERROR(device_->ReadBlock(bitmap_start_ + b, block));
    for (uint32_t i = 0; i < block_size_; ++i) {
      bitmap_[b * block_size_ + i] = static_cast<uint8_t>(block[i]);
    }
  }
  return Status::Ok();
}

Status UnixFs::FlushBitmap() {
  Bytes block(block_size_);
  for (uint32_t b = 0; b < bitmap_blocks_; ++b) {
    for (uint32_t i = 0; i < block_size_; ++i) {
      block[i] = static_cast<std::byte>(bitmap_[b * block_size_ + i]);
    }
    CLIO_RETURN_IF_ERROR(device_->WriteBlock(bitmap_start_ + b, block));
  }
  return Status::Ok();
}

Result<uint32_t> UnixFs::AllocBlock() {
  uint64_t nblocks = device_->capacity_blocks();
  for (uint64_t b = data_start_; b < nblocks; ++b) {
    if ((bitmap_[b / 8] & (1u << (b % 8))) == 0) {
      bitmap_[b / 8] |= static_cast<uint8_t>(1u << (b % 8));
      // Write-through only the dirty bitmap block.
      uint32_t bb = static_cast<uint32_t>(b / 8 / block_size_);
      Bytes block(block_size_);
      for (uint32_t i = 0; i < block_size_; ++i) {
        block[i] = static_cast<std::byte>(bitmap_[bb * block_size_ + i]);
      }
      CLIO_RETURN_IF_ERROR(device_->WriteBlock(bitmap_start_ + bb, block));
      return static_cast<uint32_t>(b);
    }
  }
  return NoSpace("UnixFs out of data blocks");
}

Status UnixFs::FreeBlock(uint32_t block) {
  bitmap_[block / 8] &= static_cast<uint8_t>(~(1u << (block % 8)));
  uint32_t bb = block / 8 / block_size_;
  Bytes image(block_size_);
  for (uint32_t i = 0; i < block_size_; ++i) {
    image[i] = static_cast<std::byte>(bitmap_[bb * block_size_ + i]);
  }
  if (cache_ != nullptr) {
    cache_->Erase({cache_device_id_, block});
  }
  return device_->WriteBlock(bitmap_start_ + bb, image);
}

uint64_t UnixFs::free_blocks() const {
  uint64_t free = 0;
  for (uint64_t b = data_start_; b < device_->capacity_blocks(); ++b) {
    if ((bitmap_[b / 8] & (1u << (b % 8))) == 0) {
      ++free;
    }
  }
  return free;
}

Result<UnixFs::Inode> UnixFs::GetInode(uint32_t number) const {
  if (number == 0 || number >= inode_count_) {
    return InvalidArgument("inode number out of range");
  }
  uint32_t per_block = block_size_ / kInodeSize;
  uint32_t block = inode_table_start_ + number / per_block;
  uint32_t offset = (number % per_block) * kInodeSize;
  Bytes image(block_size_);
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(block, image));
  return Inode::DecodeFrom(
      std::span<const std::byte>(image).subspan(offset, kInodeSize));
}

Status UnixFs::PutInode(uint32_t number, const Inode& inode) {
  if (number == 0 || number >= inode_count_) {
    return InvalidArgument("inode number out of range");
  }
  uint32_t per_block = block_size_ / kInodeSize;
  uint32_t block = inode_table_start_ + number / per_block;
  uint32_t offset = (number % per_block) * kInodeSize;
  Bytes image(block_size_);
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(block, image));
  inode.EncodeTo(std::span<std::byte>(image).subspan(offset, kInodeSize));
  return device_->WriteBlock(block, image);
}

Result<uint32_t> UnixFs::AllocInode() {
  for (uint32_t i = kRootInode + 1; i < inode_count_; ++i) {
    CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(i));
    if (inode.mode == kModeFree) {
      return i;
    }
  }
  return NoSpace("UnixFs out of inodes");
}

Result<Bytes> UnixFs::ReadBlockCached(uint32_t block, VfsOpStats* stats) const {
  if (stats != nullptr) {
    ++stats->blocks_read;
  }
  if (cache_ != nullptr) {
    if (BlockImage hit = cache_->Lookup({cache_device_id_, block})) {
      if (stats != nullptr) {
        ++stats->cache_hits;
      }
      return Bytes(hit.bytes().begin(), hit.bytes().end());
    }
  }
  Bytes image(block_size_);
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(block, image));
  if (cache_ != nullptr) {
    cache_->Admit({cache_device_id_, block}, image);
  }
  return image;
}

Status UnixFs::WriteBlockThrough(uint32_t block,
                                 std::span<const std::byte> data,
                                 VfsOpStats* stats) {
  if (stats != nullptr) {
    ++stats->blocks_written;
  }
  CLIO_RETURN_IF_ERROR(device_->WriteBlock(block, data));
  if (cache_ != nullptr) {
    cache_->Replace({cache_device_id_, block}, data);
  }
  return Status::Ok();
}

Result<uint32_t> UnixFs::MapBlockConst(const Inode& inode,
                                       uint64_t file_block,
                                       VfsOpStats* stats) const {
  const uint64_t ptrs = block_size_ / 4;
  if (file_block < kDirectPointers) {
    return inode.direct[file_block];
  }
  file_block -= kDirectPointers;

  auto follow = [&](uint32_t table_block,
                    uint64_t index) -> Result<uint32_t> {
    if (table_block == 0) {
      return uint32_t{0};
    }
    CLIO_ASSIGN_OR_RETURN(Bytes table, ReadBlockCached(table_block, stats));
    return LoadU32(table, index * 4);
  };

  if (file_block < ptrs) {
    return follow(inode.indirect, file_block);
  }
  file_block -= ptrs;
  if (file_block < ptrs * ptrs) {
    CLIO_ASSIGN_OR_RETURN(uint32_t l1,
                          follow(inode.dindirect, file_block / ptrs));
    return follow(l1, file_block % ptrs);
  }
  file_block -= ptrs * ptrs;
  if (file_block < ptrs * ptrs * ptrs) {
    CLIO_ASSIGN_OR_RETURN(
        uint32_t l1, follow(inode.tindirect, file_block / (ptrs * ptrs)));
    CLIO_ASSIGN_OR_RETURN(uint32_t l2,
                          follow(l1, (file_block / ptrs) % ptrs));
    return follow(l2, file_block % ptrs);
  }
  return OutOfRange("file offset beyond triple-indirect reach");
}

Result<uint32_t> UnixFs::MapBlockAlloc(Inode* inode, uint64_t file_block,
                                       VfsOpStats* stats) {
  const uint64_t ptrs = block_size_ / 4;

  auto ensure_table = [&](uint32_t* slot) -> Status {
    if (*slot == 0) {
      CLIO_ASSIGN_OR_RETURN(uint32_t fresh, AllocBlock());
      Bytes zero(block_size_, std::byte{0});
      CLIO_RETURN_IF_ERROR(WriteBlockThrough(fresh, zero, stats));
      *slot = fresh;
      ++inode->allocated;
    }
    return Status::Ok();
  };
  auto table_slot = [&](uint32_t table_block, uint64_t index,
                        uint32_t* out) -> Status {
    CLIO_ASSIGN_OR_RETURN(Bytes table, ReadBlockCached(table_block, stats));
    *out = LoadU32(table, index * 4);
    return Status::Ok();
  };
  auto set_table_slot = [&](uint32_t table_block, uint64_t index,
                            uint32_t value) -> Status {
    CLIO_ASSIGN_OR_RETURN(Bytes table, ReadBlockCached(table_block, stats));
    StoreU32(table, index * 4, value);
    return WriteBlockThrough(table_block, table, stats);
  };
  auto ensure_in_table = [&](uint32_t table_block, uint64_t index,
                             uint32_t* out) -> Status {
    CLIO_RETURN_IF_ERROR(table_slot(table_block, index, out));
    if (*out == 0) {
      CLIO_ASSIGN_OR_RETURN(uint32_t fresh, AllocBlock());
      Bytes zero(block_size_, std::byte{0});
      CLIO_RETURN_IF_ERROR(WriteBlockThrough(fresh, zero, stats));
      CLIO_RETURN_IF_ERROR(set_table_slot(table_block, index, fresh));
      *out = fresh;
      ++inode->allocated;
    }
    return Status::Ok();
  };

  if (file_block < kDirectPointers) {
    if (inode->direct[file_block] == 0) {
      CLIO_ASSIGN_OR_RETURN(uint32_t fresh, AllocBlock());
      inode->direct[file_block] = fresh;
      ++inode->allocated;
    }
    return inode->direct[file_block];
  }
  file_block -= kDirectPointers;
  if (file_block < ptrs) {
    CLIO_RETURN_IF_ERROR(ensure_table(&inode->indirect));
    uint32_t data = 0;
    CLIO_RETURN_IF_ERROR(ensure_in_table(inode->indirect, file_block, &data));
    return data;
  }
  file_block -= ptrs;
  if (file_block < ptrs * ptrs) {
    CLIO_RETURN_IF_ERROR(ensure_table(&inode->dindirect));
    uint32_t l1 = 0;
    CLIO_RETURN_IF_ERROR(
        ensure_in_table(inode->dindirect, file_block / ptrs, &l1));
    uint32_t data = 0;
    CLIO_RETURN_IF_ERROR(ensure_in_table(l1, file_block % ptrs, &data));
    return data;
  }
  file_block -= ptrs * ptrs;
  if (file_block < ptrs * ptrs * ptrs) {
    CLIO_RETURN_IF_ERROR(ensure_table(&inode->tindirect));
    uint32_t l1 = 0;
    CLIO_RETURN_IF_ERROR(
        ensure_in_table(inode->tindirect, file_block / (ptrs * ptrs), &l1));
    uint32_t l2 = 0;
    CLIO_RETURN_IF_ERROR(
        ensure_in_table(l1, (file_block / ptrs) % ptrs, &l2));
    uint32_t data = 0;
    CLIO_RETURN_IF_ERROR(ensure_in_table(l2, file_block % ptrs, &data));
    return data;
  }
  return OutOfRange("file offset beyond triple-indirect reach");
}

Status UnixFs::Write(uint32_t inode_number, uint64_t offset,
                     std::span<const std::byte> data, VfsOpStats* stats) {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  if (inode.mode == kModeFree) {
    return NotFound("write to free inode");
  }
  uint64_t pos = offset;
  size_t written = 0;
  while (written < data.size()) {
    uint64_t file_block = pos / block_size_;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t chunk = std::min<uint64_t>(block_size_ - in_block,
                                        data.size() - written);
    CLIO_ASSIGN_OR_RETURN(uint32_t device_block,
                          MapBlockAlloc(&inode, file_block, stats));
    Bytes image;
    if (in_block == 0 && chunk == block_size_) {
      image.assign(block_size_, std::byte{0});
    } else {
      CLIO_ASSIGN_OR_RETURN(image, ReadBlockCached(device_block, stats));
    }
    std::copy(data.begin() + written, data.begin() + written + chunk,
              image.begin() + in_block);
    CLIO_RETURN_IF_ERROR(WriteBlockThrough(device_block, image, stats));
    pos += chunk;
    written += chunk;
  }
  inode.size = std::max(inode.size, offset + data.size());
  return PutInode(inode_number, inode);
}

Status UnixFs::Append(uint32_t inode_number, std::span<const std::byte> data,
                      VfsOpStats* stats) {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  return Write(inode_number, inode.size, data, stats);
}

Result<size_t> UnixFs::Read(uint32_t inode_number, uint64_t offset,
                            std::span<std::byte> out,
                            VfsOpStats* stats) const {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  if (inode.mode == kModeFree) {
    return NotFound("read of free inode");
  }
  if (offset >= inode.size) {
    return size_t{0};
  }
  size_t want = std::min<uint64_t>(out.size(), inode.size - offset);
  size_t done = 0;
  uint64_t pos = offset;
  while (done < want) {
    uint64_t file_block = pos / block_size_;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t chunk =
        static_cast<uint32_t>(std::min<uint64_t>(block_size_ - in_block,
                                                 want - done));
    CLIO_ASSIGN_OR_RETURN(uint32_t device_block,
                          MapBlockConst(inode, file_block, stats));
    if (device_block == 0) {
      std::fill(out.begin() + done, out.begin() + done + chunk,
                std::byte{0});  // hole
    } else {
      CLIO_ASSIGN_OR_RETURN(Bytes image, ReadBlockCached(device_block, stats));
      std::copy(image.begin() + in_block, image.begin() + in_block + chunk,
                out.begin() + done);
    }
    pos += chunk;
    done += chunk;
  }
  return done;
}

Result<UnixFsStat> UnixFs::StatInode(uint32_t inode_number) const {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  if (inode.mode == kModeFree) {
    return NotFound("stat of free inode");
  }
  UnixFsStat stat;
  stat.inode = inode_number;
  stat.is_directory = inode.mode == kModeDir;
  stat.size = inode.size;
  stat.allocated_blocks = inode.allocated;
  return stat;
}

Result<uint64_t> UnixFs::BlocksToRead(uint32_t inode_number, uint64_t offset,
                                      uint64_t len) const {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  (void)inode;
  const uint64_t ptrs = block_size_ / 4;
  uint64_t first = offset / block_size_;
  uint64_t last = len == 0 ? first : (offset + len - 1) / block_size_;
  std::set<std::pair<int, uint64_t>> tables;
  uint64_t data_blocks = 0;
  for (uint64_t fb = first; fb <= last; ++fb) {
    ++data_blocks;
    if (fb < kDirectPointers) {
      continue;
    }
    uint64_t rel = fb - kDirectPointers;
    if (rel < ptrs) {
      tables.insert({1, 0});
      continue;
    }
    rel -= ptrs;
    if (rel < ptrs * ptrs) {
      tables.insert({2, 0});
      tables.insert({3, rel / ptrs});
      continue;
    }
    rel -= ptrs * ptrs;
    tables.insert({4, 0});
    tables.insert({5, rel / (ptrs * ptrs)});
    tables.insert({6, rel / ptrs});
  }
  return data_blocks + tables.size();
}

Status UnixFs::Truncate(uint32_t inode_number, uint64_t new_size) {
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(inode_number));
  if (new_size > inode.size) {
    return Unimplemented("truncate cannot extend files");
  }
  // Free data blocks wholly past the new size. (Indirect table blocks are
  // kept; they are reused if the file regrows.)
  uint64_t keep_blocks = (new_size + block_size_ - 1) / block_size_;
  uint64_t total_blocks = (inode.size + block_size_ - 1) / block_size_;
  for (uint64_t fb = keep_blocks; fb < total_blocks; ++fb) {
    auto mapped = MapBlockConst(inode, fb, nullptr);
    if (mapped.ok() && mapped.value() != 0) {
      CLIO_RETURN_IF_ERROR(FreeBlock(mapped.value()));
      if (inode.allocated > 0) {
        --inode.allocated;
      }
      // Clear direct slots so future reads see holes.
      if (fb < kDirectPointers) {
        inode.direct[fb] = 0;
      }
    }
  }
  inode.size = new_size;
  return PutInode(inode_number, inode);
}

Result<std::pair<uint32_t, std::string>> UnixFs::ResolveParent(
    std::string_view path) const {
  if (path.size() < 2 || path.front() != '/') {
    return InvalidArgument("path must be absolute and non-root");
  }
  size_t slash = path.rfind('/');
  std::string name(path.substr(slash + 1));
  if (name.empty()) {
    return InvalidArgument("path ends in '/'");
  }
  std::string_view parent = slash == 0 ? "/" : path.substr(0, slash);
  CLIO_ASSIGN_OR_RETURN(uint32_t dir, Lookup(parent));
  return std::make_pair(dir, name);
}

Result<uint32_t> UnixFs::LookupIn(uint32_t dir_inode,
                                  std::string_view name) const {
  CLIO_ASSIGN_OR_RETURN(Inode dir, GetInode(dir_inode));
  if (dir.mode != kModeDir) {
    return InvalidArgument("not a directory");
  }
  Bytes data(dir.size);
  CLIO_ASSIGN_OR_RETURN(size_t n, Read(dir_inode, 0, data, nullptr));
  ByteReader r(std::span<const std::byte>(data.data(), n));
  while (r.remaining() > 0) {
    std::string entry_name = r.GetString();
    uint32_t ino = r.GetU32();
    if (r.failed()) {
      return Corrupt("malformed directory");
    }
    if (entry_name == name) {
      return ino;
    }
  }
  return NotFound("no directory entry '" + std::string(name) + "'");
}

Result<uint32_t> UnixFs::Lookup(std::string_view path) const {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("path must be absolute");
  }
  uint32_t current = kRootInode;
  size_t pos = 1;
  while (pos < path.size()) {
    size_t slash = path.find('/', pos);
    std::string_view component = slash == std::string_view::npos
                                     ? path.substr(pos)
                                     : path.substr(pos, slash - pos);
    if (component.empty()) {
      return InvalidArgument("empty path component");
    }
    CLIO_ASSIGN_OR_RETURN(current, LookupIn(current, component));
    pos = slash == std::string_view::npos ? path.size() : slash + 1;
  }
  return current;
}

Status UnixFs::AddDirEntry(uint32_t dir_inode, std::string_view name,
                           uint32_t inode) {
  CLIO_ASSIGN_OR_RETURN(Inode dir, GetInode(dir_inode));
  Bytes record;
  ByteWriter w(&record);
  w.PutString(name);
  w.PutU32(inode);
  return Write(dir_inode, dir.size, record, nullptr);
}

Status UnixFs::RemoveDirEntry(uint32_t dir_inode, std::string_view name) {
  CLIO_ASSIGN_OR_RETURN(Inode dir, GetInode(dir_inode));
  Bytes data(dir.size);
  CLIO_ASSIGN_OR_RETURN(size_t n, Read(dir_inode, 0, data, nullptr));
  Bytes rebuilt;
  ByteWriter w(&rebuilt);
  ByteReader r(std::span<const std::byte>(data.data(), n));
  bool removed = false;
  while (r.remaining() > 0) {
    std::string entry_name = r.GetString();
    uint32_t ino = r.GetU32();
    if (r.failed()) {
      return Corrupt("malformed directory");
    }
    if (entry_name == name) {
      removed = true;
      continue;
    }
    w.PutString(entry_name);
    w.PutU32(ino);
  }
  if (!removed) {
    return NotFound("no directory entry '" + std::string(name) + "'");
  }
  CLIO_RETURN_IF_ERROR(Truncate(dir_inode, 0));
  if (!rebuilt.empty()) {
    return Write(dir_inode, 0, rebuilt, nullptr);
  }
  return Status::Ok();
}

Result<uint32_t> UnixFs::CreateFile(std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto existing = LookupIn(parent.first, parent.second);
  if (existing.ok()) {
    return AlreadyExists("path exists");
  }
  CLIO_ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  Inode inode;
  inode.mode = kModeFile;
  CLIO_RETURN_IF_ERROR(PutInode(ino, inode));
  CLIO_RETURN_IF_ERROR(AddDirEntry(parent.first, parent.second, ino));
  return ino;
}

Result<uint32_t> UnixFs::Mkdir(std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  auto existing = LookupIn(parent.first, parent.second);
  if (existing.ok()) {
    return AlreadyExists("path exists");
  }
  CLIO_ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  Inode inode;
  inode.mode = kModeDir;
  CLIO_RETURN_IF_ERROR(PutInode(ino, inode));
  CLIO_RETURN_IF_ERROR(AddDirEntry(parent.first, parent.second, ino));
  return ino;
}

Result<std::vector<std::pair<std::string, uint32_t>>> UnixFs::ReadDir(
    std::string_view path) const {
  CLIO_ASSIGN_OR_RETURN(uint32_t dir_inode, Lookup(path));
  CLIO_ASSIGN_OR_RETURN(Inode dir, GetInode(dir_inode));
  if (dir.mode != kModeDir) {
    return InvalidArgument("not a directory");
  }
  Bytes data(dir.size);
  CLIO_ASSIGN_OR_RETURN(size_t n, Read(dir_inode, 0, data, nullptr));
  std::vector<std::pair<std::string, uint32_t>> out;
  ByteReader r(std::span<const std::byte>(data.data(), n));
  while (r.remaining() > 0) {
    std::string name = r.GetString();
    uint32_t ino = r.GetU32();
    if (r.failed()) {
      return Corrupt("malformed directory");
    }
    out.emplace_back(std::move(name), ino);
  }
  return out;
}

Status UnixFs::Remove(std::string_view path) {
  CLIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  CLIO_ASSIGN_OR_RETURN(uint32_t ino, LookupIn(parent.first, parent.second));
  CLIO_ASSIGN_OR_RETURN(Inode inode, GetInode(ino));
  if (inode.mode == kModeDir) {
    return FailedPrecondition("Remove only handles regular files");
  }
  CLIO_RETURN_IF_ERROR(Truncate(ino, 0));
  Inode freed;
  freed.mode = kModeFree;
  CLIO_RETURN_IF_ERROR(PutInode(ino, freed));
  return RemoveDirEntry(parent.first, parent.second);
}

}  // namespace clio
