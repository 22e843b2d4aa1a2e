#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hsis::crypto {

namespace {

uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

// `inline` matters: called eight times per double round, the quarter
// round is otherwise left out of line at -O2, and every call then
// round-trips the block state through memory (2x slower ChaCha20).
inline void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

// Four ChaCha20 states side by side: word i of block j is lane j of
// vector i. GCC and Clang lower these vector extensions to SSE2 on
// x86-64 and NEON on AArch64; elsewhere they split into scalar ops.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

template <int n>
inline U32x4 RotlLanes(U32x4 x) {
  return (x << n) | (x >> (32 - n));
}

inline void QuarterRoundLanes(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d = RotlLanes<16>(d ^ a);
  c += d;
  b = RotlLanes<12>(b ^ c);
  a += b;
  d = RotlLanes<8>(d ^ a);
  c += d;
  b = RotlLanes<7>(b ^ c);
}

inline U32x4 Splat(uint32_t v) { return U32x4{v, v, v, v}; }

// XORs the keystream of blocks `counter`..`counter + 3` (mod 2^32, as
// the one-block path's `counter_++` wraps) into the 256 bytes at `data`.
void XorFourBlocks(const std::array<uint32_t, 8>& key,
                   const std::array<uint32_t, 3>& nonce, uint32_t counter,
                   uint8_t* data) {
  const U32x4 state[16] = {
      Splat(0x61707865), Splat(0x3320646e), Splat(0x79622d32),
      Splat(0x6b206574), Splat(key[0]),     Splat(key[1]),
      Splat(key[2]),     Splat(key[3]),     Splat(key[4]),
      Splat(key[5]),     Splat(key[6]),     Splat(key[7]),
      Splat(counter) + U32x4{0, 1, 2, 3},   Splat(nonce[0]),
      Splat(nonce[1]),   Splat(nonce[2]),
  };
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRoundLanes(x[0], x[4], x[8], x[12]);
    QuarterRoundLanes(x[1], x[5], x[9], x[13]);
    QuarterRoundLanes(x[2], x[6], x[10], x[14]);
    QuarterRoundLanes(x[3], x[7], x[11], x[15]);
    QuarterRoundLanes(x[0], x[5], x[10], x[15]);
    QuarterRoundLanes(x[1], x[6], x[11], x[12]);
    QuarterRoundLanes(x[2], x[7], x[8], x[13]);
    QuarterRoundLanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += state[i];

  // Transpose each 4x4 group of words back to block order: row j of
  // group q is words 4q..4q+3 of block j, bytes 64j+16q.. of `data`.
  for (int q = 0; q < 4; ++q) {
    const U32x4 a = x[4 * q], b = x[4 * q + 1];
    const U32x4 c = x[4 * q + 2], d = x[4 * q + 3];
    const U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    U32x4 rows[4] = {
        __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5),
        __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7),
        __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5),
        __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7),
    };
    for (int j = 0; j < 4; ++j) {
      if constexpr (std::endian::native == std::endian::big) {
        for (int w = 0; w < 4; ++w) rows[j][w] = __builtin_bswap32(rows[j][w]);
      }
      uint8_t* p = data + 64 * j + 16 * q;
      U32x4 v;
      std::memcpy(&v, p, sizeof(v));
      v ^= rows[j];
      std::memcpy(p, &v, sizeof(v));
    }
  }
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

std::array<uint8_t, 64> ChaCha20::Block(const std::array<uint32_t, 8>& key,
                                        const std::array<uint32_t, 3>& nonce,
                                        uint32_t counter) {
  uint32_t state[16] = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,  // "expand 32-byte k"
      key[0],     key[1],     key[2],     key[3],
      key[4],     key[5],     key[6],     key[7],
      counter,    nonce[0],   nonce[1],   nonce[2],
  };
  uint32_t working[16];
  for (int i = 0; i < 16; ++i) working[i] = state[i];

  for (int round = 0; round < 10; ++round) {
    QuarterRound(working[0], working[4], working[8], working[12]);
    QuarterRound(working[1], working[5], working[9], working[13]);
    QuarterRound(working[2], working[6], working[10], working[14]);
    QuarterRound(working[3], working[7], working[11], working[15]);
    QuarterRound(working[0], working[5], working[10], working[15]);
    QuarterRound(working[1], working[6], working[11], working[12]);
    QuarterRound(working[2], working[7], working[8], working[13]);
    QuarterRound(working[3], working[4], working[9], working[14]);
  }

  std::array<uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) {
    uint32_t v = working[i] + state[i];
    out[4 * i] = static_cast<uint8_t>(v);
    out[4 * i + 1] = static_cast<uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<uint8_t>(v >> 24);
  }
  return out;
}

Result<ChaCha20> ChaCha20::Create(std::span<const uint8_t> key,
                                  std::span<const uint8_t> nonce,
                                  uint32_t initial_counter) {
  if (key.size() != kKeySize) {
    return Status::InvalidArgument("ChaCha20 key must be 32 bytes");
  }
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("ChaCha20 nonce must be 12 bytes");
  }
  std::array<uint32_t, 8> k;
  for (int i = 0; i < 8; ++i) k[i] = LoadLE32(&key[4 * static_cast<size_t>(i)]);
  std::array<uint32_t, 3> n;
  for (int i = 0; i < 3; ++i) n[i] = LoadLE32(&nonce[4 * static_cast<size_t>(i)]);
  return ChaCha20(k, n, initial_counter);
}

void ChaCha20::Process(Bytes& data) { Process(data.data(), data.size()); }

void ChaCha20::Process(uint8_t* data, size_t len) {
  // Finish the keystream block a previous call left partly used.
  const size_t head = std::min(len, 64 - keystream_pos_);
  for (size_t i = 0; i < head; ++i) data[i] ^= keystream_[keystream_pos_ + i];
  keystream_pos_ += head;
  data += head;
  len -= head;
  // Runs of four whole blocks through the 4-lane kernel.
  for (; len >= 256; data += 256, len -= 256) {
    XorFourBlocks(key_, nonce_, counter_, data);
    counter_ += 4;
  }
  // Remaining whole blocks, XORed a 64-bit word at a time.
  while (len >= 64) {
    const std::array<uint8_t, 64> block = Block(key_, nonce_, counter_++);
    for (size_t w = 0; w < 64; w += 8) {
      uint64_t d, k;
      std::memcpy(&d, data + w, 8);
      std::memcpy(&k, block.data() + w, 8);
      d ^= k;
      std::memcpy(data + w, &d, 8);
    }
    data += 64;
    len -= 64;
  }
  // A ragged tail starts a fresh block and keeps the rest for later.
  if (len > 0) {
    keystream_ = Block(key_, nonce_, counter_++);
    for (size_t i = 0; i < len; ++i) data[i] ^= keystream_[i];
    keystream_pos_ = len;
  }
}

Result<Bytes> ChaCha20::Apply(std::span<const uint8_t> key,
                              std::span<const uint8_t> nonce,
                              const Bytes& data, uint32_t initial_counter) {
  HSIS_ASSIGN_OR_RETURN(ChaCha20 cipher, Create(key, nonce, initial_counter));
  Bytes out = data;
  cipher.Process(out);
  return out;
}

}  // namespace hsis::crypto
