// The two compression functions behind Sha256 (src/util/sha256.h), for
// equivalence tests. Not for other callers: Sha256 picks between them.
#ifndef SRC_UTIL_SHA256_INTERNAL_H_
#define SRC_UTIL_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace clio {
namespace sha256_internal {

// The portable rounds.
void CompressPortable(uint32_t* state, const std::byte* blocks,
                      size_t count);

// True when this CPU has the SHA extensions plus SSSE3 and SSE4.1. Safe
// to call from any static initializer.
bool HardwareAvailable();

// The SHA-NI path. Requires HardwareAvailable().
void CompressHardware(uint32_t* state, const std::byte* blocks,
                      size_t count);

}  // namespace sha256_internal
}  // namespace clio

#endif  // SRC_UTIL_SHA256_INTERNAL_H_
