#include "src/vfs/extent_fs.h"

#include <algorithm>

namespace clio {
namespace {

constexpr uint32_t kSuperMagic = 0x45465331;  // "EFS1"

}  // namespace

ExtentFs::ExtentFs(RewritableBlockDevice* device, BlockCache* cache,
                   uint64_t cache_device_id)
    : device_(device),
      cache_(cache),
      cache_device_id_(cache_device_id),
      block_size_(device->block_size()) {}

Result<std::unique_ptr<ExtentFs>> ExtentFs::Format(
    RewritableBlockDevice* device, BlockCache* cache,
    uint64_t cache_device_id, const FormatOptions& options) {
  if (device->block_size() < 256) {
    return InvalidArgument("ExtentFs requires blocks of at least 256 bytes");
  }
  std::unique_ptr<ExtentFs> fs(
      new ExtentFs(device, cache, cache_device_id));
  const uint32_t bs = fs->block_size_;
  const uint64_t nblocks = device->capacity_blocks();

  fs->max_files_ = options.max_files;
  fs->bitmap_start_ = 1;
  fs->bitmap_blocks_ =
      static_cast<uint32_t>((nblocks + 8 * bs - 1) / (8 * bs));
  fs->file_table_start_ = fs->bitmap_start_ + fs->bitmap_blocks_;
  fs->data_start_ = fs->file_table_start_ + fs->max_files_;
  if (fs->data_start_ >= nblocks) {
    return NoSpace("device too small for ExtentFs metadata");
  }

  Bytes super(bs, std::byte{0});
  StoreU32(super, 0, kSuperMagic);
  StoreU32(super, 4, bs);
  StoreU32(super, 8, fs->max_files_);
  StoreU32(super, 12, fs->bitmap_start_);
  StoreU32(super, 16, fs->bitmap_blocks_);
  StoreU32(super, 20, fs->file_table_start_);
  StoreU32(super, 24, fs->data_start_);
  CLIO_RETURN_IF_ERROR(device->WriteBlock(0, super));

  fs->bitmap_.assign(fs->bitmap_blocks_ * bs, 0);
  for (uint32_t b = 0; b < fs->data_start_; ++b) {
    fs->bitmap_[b / 8] |= static_cast<uint8_t>(1u << (b % 8));
  }
  Bytes block(bs);
  for (uint32_t b = 0; b < fs->bitmap_blocks_; ++b) {
    for (uint32_t i = 0; i < bs; ++i) {
      block[i] = static_cast<std::byte>(fs->bitmap_[b * bs + i]);
    }
    CLIO_RETURN_IF_ERROR(device->WriteBlock(fs->bitmap_start_ + b, block));
  }

  fs->files_.assign(fs->max_files_, File{});
  Bytes zero(bs, std::byte{0});
  for (uint32_t f = 0; f < fs->max_files_; ++f) {
    CLIO_RETURN_IF_ERROR(device->WriteBlock(fs->file_table_start_ + f, zero));
  }
  return fs;
}

Result<std::unique_ptr<ExtentFs>> ExtentFs::Mount(
    RewritableBlockDevice* device, BlockCache* cache,
    uint64_t cache_device_id) {
  std::unique_ptr<ExtentFs> fs(
      new ExtentFs(device, cache, cache_device_id));
  CLIO_RETURN_IF_ERROR(fs->LoadSuper());
  return fs;
}

Status ExtentFs::LoadSuper() {
  Bytes super(block_size_);
  CLIO_RETURN_IF_ERROR(device_->ReadBlock(0, super));
  if (LoadU32(super, 0) != kSuperMagic) {
    return Corrupt("bad ExtentFs superblock magic");
  }
  max_files_ = LoadU32(super, 8);
  bitmap_start_ = LoadU32(super, 12);
  bitmap_blocks_ = LoadU32(super, 16);
  file_table_start_ = LoadU32(super, 20);
  data_start_ = LoadU32(super, 24);

  bitmap_.assign(bitmap_blocks_ * block_size_, 0);
  Bytes block(block_size_);
  for (uint32_t b = 0; b < bitmap_blocks_; ++b) {
    CLIO_RETURN_IF_ERROR(device_->ReadBlock(bitmap_start_ + b, block));
    for (uint32_t i = 0; i < block_size_; ++i) {
      bitmap_[b * block_size_ + i] = static_cast<uint8_t>(block[i]);
    }
  }

  files_.assign(max_files_, File{});
  for (uint32_t f = 0; f < max_files_; ++f) {
    CLIO_RETURN_IF_ERROR(device_->ReadBlock(file_table_start_ + f, block));
    ByteReader r(block);
    uint8_t in_use = r.GetU8();
    if (in_use == 0) {
      continue;
    }
    File file;
    file.in_use = true;
    file.size = r.GetU64();
    file.name = r.GetString();
    uint16_t n = r.GetU16();
    for (uint16_t i = 0; i < n && !r.failed(); ++i) {
      Extent e;
      e.start = r.GetU32();
      e.length = r.GetU32();
      file.extents.push_back(e);
    }
    if (r.failed()) {
      return Corrupt("malformed file record " + std::to_string(f));
    }
    files_[f] = std::move(file);
  }
  return Status::Ok();
}

Status ExtentFs::FlushFile(uint32_t file_id) {
  const File& file = files_[file_id];
  Bytes record;
  ByteWriter w(&record);
  w.PutU8(file.in_use ? 1 : 0);
  w.PutU64(file.size);
  w.PutString(file.name);
  w.PutU16(static_cast<uint16_t>(file.extents.size()));
  for (const Extent& e : file.extents) {
    w.PutU32(e.start);
    w.PutU32(e.length);
  }
  if (record.size() > block_size_) {
    return NoSpace("file '" + file.name + "' exceeds the per-file extent "
                   "budget (" + std::to_string(file.extents.size()) +
                   " extents)");
  }
  record.resize(block_size_, std::byte{0});
  return device_->WriteBlock(file_table_start_ + file_id, record);
}

bool ExtentFs::BlockFree(uint64_t block) const {
  return (bitmap_[block / 8] & (1u << (block % 8))) == 0;
}

void ExtentFs::MarkBlock(uint64_t block, bool used) {
  if (used) {
    bitmap_[block / 8] |= static_cast<uint8_t>(1u << (block % 8));
  } else {
    bitmap_[block / 8] &= static_cast<uint8_t>(~(1u << (block % 8)));
  }
}

Status ExtentFs::FlushBitmapBlockFor(uint64_t block) {
  uint32_t bb = static_cast<uint32_t>(block / 8 / block_size_);
  Bytes image(block_size_);
  for (uint32_t i = 0; i < block_size_; ++i) {
    image[i] = static_cast<std::byte>(bitmap_[bb * block_size_ + i]);
  }
  return device_->WriteBlock(bitmap_start_ + bb, image);
}

Result<uint32_t> ExtentFs::AllocOneBlock() {
  for (uint64_t b = data_start_; b < device_->capacity_blocks(); ++b) {
    if (BlockFree(b)) {
      MarkBlock(b, true);
      CLIO_RETURN_IF_ERROR(FlushBitmapBlockFor(b));
      return static_cast<uint32_t>(b);
    }
  }
  return NoSpace("ExtentFs out of data blocks");
}

Result<uint32_t> ExtentFs::Create(std::string_view name) {
  for (const File& f : files_) {
    if (f.in_use && f.name == name) {
      return AlreadyExists("file exists");
    }
  }
  for (uint32_t id = 0; id < max_files_; ++id) {
    if (!files_[id].in_use) {
      files_[id].in_use = true;
      files_[id].name = std::string(name);
      files_[id].size = 0;
      files_[id].extents.clear();
      CLIO_RETURN_IF_ERROR(FlushFile(id));
      return id;
    }
  }
  return NoSpace("ExtentFs file table full");
}

Result<uint32_t> ExtentFs::Lookup(std::string_view name) const {
  for (uint32_t id = 0; id < max_files_; ++id) {
    if (files_[id].in_use && files_[id].name == name) {
      return id;
    }
  }
  return NotFound("no such file");
}

uint32_t ExtentFs::MapOffset(const File& file, uint64_t offset) const {
  uint64_t file_block = offset / block_size_;
  for (const Extent& e : file.extents) {
    if (file_block < e.length) {
      return e.start + static_cast<uint32_t>(file_block);
    }
    file_block -= e.length;
  }
  return 0;
}

Result<Bytes> ExtentFs::ReadBlockCached(uint32_t block,
                                        VfsOpStats* stats) const {
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

Status ExtentFs::WriteBlockThrough(uint32_t block,
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

Status ExtentFs::Append(uint32_t file_id, std::span<const std::byte> data,
                        VfsOpStats* stats) {
  if (file_id >= max_files_ || !files_[file_id].in_use) {
    return NotFound("no such file id");
  }
  File& file = files_[file_id];
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = file.size + written;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t device_block = MapOffset(file, pos);
    if (device_block == 0) {
      // Need a new block: try to grow the last extent in place first.
      bool grown = false;
      if (!file.extents.empty()) {
        Extent& last = file.extents.back();
        uint64_t next = static_cast<uint64_t>(last.start) + last.length;
        if (next < device_->capacity_blocks() && BlockFree(next)) {
          MarkBlock(next, true);
          CLIO_RETURN_IF_ERROR(FlushBitmapBlockFor(next));
          ++last.length;
          device_block = static_cast<uint32_t>(next);
          grown = true;
        }
      }
      if (!grown) {
        // Discontiguous: a fresh extent (the paper's fragmentation effect).
        CLIO_ASSIGN_OR_RETURN(device_block, AllocOneBlock());
        file.extents.push_back(Extent{device_block, 1});
      }
      CLIO_RETURN_IF_ERROR(FlushFile(file_id));
    }
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(block_size_ - in_block, data.size() - written));
    Bytes image;
    if (in_block == 0 && chunk == block_size_) {
      image.assign(block_size_, std::byte{0});
    } else {
      CLIO_ASSIGN_OR_RETURN(image, ReadBlockCached(device_block, stats));
    }
    std::copy(data.begin() + written, data.begin() + written + chunk,
              image.begin() + in_block);
    CLIO_RETURN_IF_ERROR(WriteBlockThrough(device_block, image, stats));
    written += chunk;
  }
  file.size += data.size();
  return FlushFile(file_id);
}

Result<size_t> ExtentFs::Read(uint32_t file_id, uint64_t offset,
                              std::span<std::byte> out,
                              VfsOpStats* stats) const {
  if (file_id >= max_files_ || !files_[file_id].in_use) {
    return NotFound("no such file id");
  }
  const File& file = files_[file_id];
  if (offset >= file.size) {
    return size_t{0};
  }
  size_t want = std::min<uint64_t>(out.size(), file.size - offset);
  size_t done = 0;
  while (done < want) {
    uint64_t pos = offset + done;
    uint32_t in_block = static_cast<uint32_t>(pos % block_size_);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(block_size_ - in_block, want - done));
    uint32_t device_block = MapOffset(file, pos);
    if (device_block == 0) {
      return Internal("extent map hole inside file size");
    }
    CLIO_ASSIGN_OR_RETURN(Bytes image, ReadBlockCached(device_block, stats));
    std::copy(image.begin() + in_block, image.begin() + in_block + chunk,
              out.begin() + done);
    done += chunk;
  }
  return done;
}

Result<ExtentFsStat> ExtentFs::Stat(uint32_t file_id) const {
  if (file_id >= max_files_ || !files_[file_id].in_use) {
    return NotFound("no such file id");
  }
  ExtentFsStat stat;
  stat.file_id = file_id;
  stat.size = files_[file_id].size;
  stat.extent_count = static_cast<uint32_t>(files_[file_id].extents.size());
  return stat;
}

}  // namespace clio
