#include "src/partition/partition_router.h"

namespace clio {

uint32_t PartitionRouter::HashRoute(std::string_view path) const {
  // FNV-1a, 64-bit.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : path) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return static_cast<uint32_t>(hash % partition_count_);
}

std::optional<uint32_t> PartitionRouter::Lookup(std::string_view path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(path);
  if (it == routes_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Status PartitionRouter::Learn(std::string_view path, uint32_t partition) {
  if (partition >= partition_count_) {
    return Corrupt("log file '" + std::string(path) + "' claims partition " +
                   std::to_string(partition) + " of " +
                   std::to_string(partition_count_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = routes_.emplace(std::string(path), partition);
  if (!inserted && it->second != partition) {
    return Corrupt("log file '" + std::string(path) +
                   "' is claimed by partitions " +
                   std::to_string(it->second) + " and " +
                   std::to_string(partition));
  }
  return Status::Ok();
}

void PartitionRouter::Forget(std::string_view path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(path);
  if (it != routes_.end()) {
    routes_.erase(it);
  }
}

std::map<std::string, uint32_t> PartitionRouter::Routes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {routes_.begin(), routes_.end()};
}

}  // namespace clio
