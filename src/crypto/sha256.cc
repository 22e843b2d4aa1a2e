#include "crypto/sha256.h"

#include <cstring>
#include <utility>

#include "common/logging.h"
#include "crypto/sha256_compress.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define HSIS_SHA256_X86 1
#endif

namespace hsis::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
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

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef HSIS_SHA256_X86

#define HSIS_SHA_NI __attribute__((target("sha,sse4.1")))

// Rounds 4g..4g+3 of one block, plus the message-schedule steps that
// interleave with them. `m[g % 4]` holds W[4g..4g+3]; each register is
// reused every fourth group. msg2 finishes W[4(g+1)..] from the
// register msg1 started two groups earlier, and msg1 then starts
// W[4(g+3)..] in the register of W[4(g-1)..], which msg2 just read.
template <int g>
HSIS_SHA_NI inline void ShaNiRounds(__m128i& abef, __m128i& cdgh,
                                    __m128i (&m)[4]) {
  const __m128i wk = _mm_add_epi32(
      m[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                    &kRoundConstants[4 * g])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (g >= 3 && g <= 14) {
    __m128i& next = m[(g + 1) % 4];
    next = _mm_add_epi32(next,
                         _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, m[g % 4]);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  if constexpr (g >= 1 && g <= 12) {
    m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
  }
}

template <int... g>
HSIS_SHA_NI inline void ShaNiBlock(__m128i& abef, __m128i& cdgh,
                                   __m128i (&m)[4],
                                   std::integer_sequence<int, g...>) {
  (ShaNiRounds<g>(abef, cdgh, m), ...);
}

HSIS_SHA_NI void CompressShaNi(uint32_t state[8], const uint8_t* data,
                               size_t blocks) {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // The rnds2 instructions keep the state as ABEF and CDGH.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
    ShaNiBlock(abef, cdgh, m, std::make_integer_sequence<int, 16>());
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_SSE4_1)) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
         (ebx & bit_SHA) != 0;
}

#endif  // HSIS_SHA256_X86

}  // namespace

namespace internal {

void Sha256CompressScalar(uint32_t state[8], const uint8_t* data,
                          size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
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
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
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

Sha256CompressFn Sha256CompressShaNi() {
#ifdef HSIS_SHA256_X86
  static const bool supported = CpuHasShaNi();
  return supported ? &CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

Sha256CompressFn Sha256Compress() {
  static const Sha256CompressFn selected = [] {
    Sha256CompressFn sha_ni = Sha256CompressShaNi();
    return sha_ni != nullptr ? sha_ni : &Sha256CompressScalar;
  }();
  return selected;
}

}  // namespace internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::Update(const uint8_t* data, size_t len) {
  HSIS_CHECK(!finished_) << "Sha256 updated after Finish()";
  if (len == 0) return;  // `data` may be null then
  total_len_ += len;
  // Top up a partly filled buffer first.
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    internal::Sha256Compress()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks compress straight from the input, in one call.
  if (const size_t blocks = len / kBlockSize; blocks > 0) {
    internal::Sha256Compress()(state_.data(), data, blocks);
    data += blocks * kBlockSize;
    len -= blocks * kBlockSize;
  }
  if (len > 0) std::memcpy(buffer_.data(), data, len);
  buffer_len_ = len;
}

Bytes Sha256::Finish() {
  HSIS_CHECK(!finished_) << "Sha256::Finish() called twice";

  // 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length:
  // one Update of 9..72 bytes.
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[kBlockSize + 8] = {0x80};
  size_t zeros_end = buffer_len_ < 56 ? 56 - buffer_len_
                                      : kBlockSize + 56 - buffer_len_;
  for (int i = 0; i < 8; ++i) {
    pad[zeros_end + static_cast<size_t>(i)] =
        static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(pad, zeros_end + 8);
  finished_ = true;

  Bytes digest(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  return h.Finish();
}

}  // namespace hsis::crypto
