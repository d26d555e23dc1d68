#include "src/util/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "src/util/sha256_internal.h"

namespace clio {
namespace {

alignas(16) constexpr std::array<uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

bool DetectHardware() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
#else
  return false;
#endif
}

Sha256::CompressFn FastestCompress() {
  return sha256_internal::HardwareAvailable()
             ? sha256_internal::CompressHardware
             : sha256_internal::CompressPortable;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t* state, const std::byte* blocks,
                      size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool HardwareAvailable() {
  // A function-local static is initialized on first use, so callers in
  // other translation units' static initializers see the real answer.
  static const bool available = DetectHardware();
  return available;
}

#if defined(__x86_64__)
__attribute__((target("sha,sse4.1,ssse3")))
void CompressHardware(uint32_t* state, const std::byte* blocks,
                      size_t count) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The round instructions keep the state as two lanes {A,B,E,F} and
  // {C,D,G,H}.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w0..w3 hold the next 16 schedule words, four per register.
    const auto* p = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), kByteSwap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), kByteSwap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), kByteSwap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), kByteSwap);
#pragma GCC unroll 16
    for (int i = 0; i < 64; i += 4) {
      __m128i wk = _mm_add_epi32(
          w0, _mm_load_si128(reinterpret_cast<const __m128i*>(&kRound[i])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
      // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time.
      __m128i next = _mm_sha256msg1_epu32(w0, w1);
      next = _mm_add_epi32(next, _mm_alignr_epi8(w3, w2, 4));
      next = _mm_sha256msg2_epu32(next, w3);
      w0 = w1;
      w1 = w2;
      w2 = w3;
      w3 = next;
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#else
void CompressHardware(uint32_t* state, const std::byte* blocks,
                      size_t count) {
  // unreachable: HardwareAvailable() is false
  CompressPortable(state, blocks, count);
}
#endif

}  // namespace sha256_internal

Sha256::Sha256() : compress_(FastestCompress()) { Reset(); }

void Sha256::Reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::Update(std::span<const std::byte> data) {
  if (data.empty()) {
    return;  // an empty span may carry a null pointer memcpy must not see
  }
  total_bytes_ += data.size();
  if (buffered_ > 0) {
    size_t take = std::min<size_t>(64 - buffered_, data.size());
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    data = data.subspan(take);
    if (buffered_ < 64) {
      return;
    }
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const size_t whole = data.size() / 64;
  if (whole > 0) {
    compress_(state_.data(), data.data(), whole);
    data = data.subspan(whole * 64);
  }
  std::memcpy(buffer_.data(), data.data(), data.size());
  buffered_ = data.size();
}

Sha256Digest Sha256::Finish() {
  const uint64_t bit_length = total_bytes_ * 8;
  // Padding: one 0x80 byte, zeros up to byte 56 of a block, then the
  // big-endian bit length — spilling into one extra block when fewer
  // than 9 bytes of the current one are free.
  buffer_[buffered_++] = std::byte{0x80};
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] =
        static_cast<std::byte>((bit_length >> (8 * (7 - i))) & 0xFF);
  }
  compress_(state_.data(), buffer_.data(), 1);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::byte>((state_[i] >> 24) & 0xFF);
    out[4 * i + 1] = static_cast<std::byte>((state_[i] >> 16) & 0xFF);
    out[4 * i + 2] = static_cast<std::byte>((state_[i] >> 8) & 0xFF);
    out[4 * i + 3] = static_cast<std::byte>(state_[i] & 0xFF);
  }
  Reset();
  return out;
}

Sha256Digest Sha256Of(std::span<const std::byte> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace clio
