// The two implementations behind Crc32cExtend (src/util/crc32c.h), for
// equivalence tests. Not for other callers: Crc32c picks between them.
#ifndef SRC_UTIL_CRC32C_INTERNAL_H_
#define SRC_UTIL_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace clio {
namespace crc32c_internal {

// The portable table path.
uint32_t ExtendTable(uint32_t crc, std::span<const std::byte> data);

// True when this CPU has the SSE4.2 `crc32` instruction. Safe to call
// from any static initializer.
bool HardwareAvailable();

// The `crc32` instruction path. Requires HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, std::span<const std::byte> data);

}  // namespace crc32c_internal
}  // namespace clio

#endif  // SRC_UTIL_CRC32C_INTERNAL_H_
