#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

#include "src/util/crc32c_internal.h"

namespace clio {
namespace {

// Table-driven CRC32C, reflected form, polynomial 0x1EDC6F41.
constexpr uint32_t kPoly = 0x82F63B78;  // reversed 0x1EDC6F41

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

bool DetectHardware() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_SSE4_2) != 0;
#else
  return false;
#endif
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendTable(uint32_t crc, std::span<const std::byte> data) {
  crc = ~crc;
  for (std::byte b : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool HardwareAvailable() {
  // A function-local static is initialized on first use, so callers in
  // other translation units' static initializers see the real answer.
  static const bool available = DetectHardware();
  return available;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2")))
uint32_t ExtendHardware(uint32_t crc, std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint64_t c = ~crc;
  // The instruction consumes the bytes of a little-endian word in memory
  // order, which is the reflected CRC's byte order.
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, *p);
  }
  return ~c32;
}
#else
uint32_t ExtendHardware(uint32_t crc, std::span<const std::byte> data) {
  return ExtendTable(crc, data);  // unreachable: HardwareAvailable() is false
}
#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, std::span<const std::byte> data) {
  return crc32c_internal::HardwareAvailable()
             ? crc32c_internal::ExtendHardware(crc, data)
             : crc32c_internal::ExtendTable(crc, data);
}

uint32_t Crc32c(std::span<const std::byte> data) {
  return Crc32cExtend(0, data);
}

}  // namespace clio
