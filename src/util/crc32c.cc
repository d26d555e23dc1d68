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

// The hardware path runs three streams of kStreamBytes at once (the
// instruction takes three cycles, but a new one starts every cycle) and
// joins them by shifting a stream's register over the bytes after it.
constexpr size_t kStreamBytes = 256;

// kShift[i][b]: the register (b << 8i) after kStreamBytes zero bytes.
// The register is linear in its input, so a register shifts as the XOR
// of its four bytes' entries.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;
constexpr ShiftTable MakeShiftTable() {
  ShiftTable table{};
  for (int i = 0; i < 4; ++i) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b << (8 * i);
      for (size_t n = 0; n < kStreamBytes; ++n) {
        crc = kTable[crc & 0xFF] ^ (crc >> 8);
      }
      table[i][b] = crc;
    }
  }
  return table;
}

constexpr ShiftTable kShift = MakeShiftTable();

uint32_t ShiftOverStream(uint32_t crc) {
  return kShift[0][crc & 0xFF] ^ kShift[1][(crc >> 8) & 0xFF] ^
         kShift[2][(crc >> 16) & 0xFF] ^ kShift[3][crc >> 24];
}

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
  auto word_at = [](const unsigned char* at) {
    uint64_t word;
    std::memcpy(&word, at, sizeof(word));
    return word;
  };
  for (; n >= 3 * kStreamBytes;
       p += 3 * kStreamBytes, n -= 3 * kStreamBytes) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kStreamBytes; i += 8) {
      c = _mm_crc32_u64(c, word_at(p + i));
      c1 = _mm_crc32_u64(c1, word_at(p + kStreamBytes + i));
      c2 = _mm_crc32_u64(c2, word_at(p + 2 * kStreamBytes + i));
    }
    c = ShiftOverStream(static_cast<uint32_t>(c)) ^ c1;
    c = ShiftOverStream(static_cast<uint32_t>(c)) ^ c2;
  }
  for (; n >= 8; p += 8, n -= 8) {
    c = _mm_crc32_u64(c, word_at(p));
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
