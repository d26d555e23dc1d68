// CRC32C (Castagnoli). Used to checksum block trailers and volume headers
// so corruption on the (simulated) log device is detected rather than
// silently parsed (paper §2.3.2: a failure may write garbage to the volume).
//
// On x86-64 CPUs with SSE4.2 the checksum runs on the `crc32` instruction,
// chosen once at run time; elsewhere a byte-at-a-time table computes it.
// Both produce the same value, so the media format does not depend on the
// host.
#ifndef SRC_UTIL_CRC32C_H_
#define SRC_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace clio {

// One-shot CRC of `data` with the standard CRC32C polynomial.
uint32_t Crc32c(std::span<const std::byte> data);

// Incremental form: crc = Crc32cExtend(crc_so_far, chunk).
uint32_t Crc32cExtend(uint32_t crc, std::span<const std::byte> data);

}  // namespace clio

#endif  // SRC_UTIL_CRC32C_H_
