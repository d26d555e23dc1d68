// SHA-256 (FIPS 180-4). Backs the volume hash chain (src/clio/chain.h):
// per-record digests, per-block commits, and the accumulated chain tag
// each burned block carries for its predecessors. Self-contained — no
// OpenSSL or platform crypto dependency — because the build must work in
// the bare toolchain image.
//
// On x86-64 CPUs with the SHA extensions the compression function runs on
// `sha256rnds2`/`sha256msg1`/`sha256msg2`, chosen once at run time;
// elsewhere portable C++ rounds compute it. Both produce the same digest,
// so the media format does not depend on the host.
#ifndef SRC_UTIL_SHA256_H_
#define SRC_UTIL_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace clio {

using Sha256Digest = std::array<std::byte, 32>;

// Incremental hasher: Update() any number of times, then Finish() once.
class Sha256 {
 public:
  // Folds `count` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(uint32_t* state, const std::byte* blocks,
                              size_t count);

  // Hashes with the fastest compression path this CPU supports.
  Sha256();
  // Hashes with a fixed path (src/util/sha256_internal.h), for tests.
  explicit Sha256(CompressFn compress) : compress_(compress) { Reset(); }

  void Reset();
  void Update(std::span<const std::byte> data);
  Sha256Digest Finish();

 private:
  CompressFn compress_;
  std::array<uint32_t, 8> state_;
  std::array<std::byte, 64> buffer_;
  uint64_t total_bytes_ = 0;
  size_t buffered_ = 0;
};

// One-shot convenience.
Sha256Digest Sha256Of(std::span<const std::byte> data);

}  // namespace clio

#endif  // SRC_UTIL_SHA256_H_
