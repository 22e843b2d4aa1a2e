#ifndef HSIS_CRYPTO_SHA256_H_
#define HSIS_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace hsis::crypto {

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch — the
/// project uses no external crypto libraries. Blocks compress through
/// the x86 SHA extensions when the CPU has them and through a portable
/// scalar loop otherwise (crypto/sha256_compress.h); both are verified
/// against the NIST test vectors in tests/crypto/sha256_test.cc.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  /// Absorbs `data` into the running hash.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The object may not be
  /// updated afterwards; construct a fresh instance for a new message.
  Bytes Finish();

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_SHA256_H_
