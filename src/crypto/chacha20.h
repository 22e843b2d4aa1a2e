#ifndef HSIS_CRYPTO_CHACHA20_H_
#define HSIS_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/result.h"

namespace hsis::crypto {

/// ChaCha20 stream cipher (RFC 8439). 256-bit key, 96-bit nonce, 32-bit
/// block counter. Encryption and decryption are the same XOR operation.
class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;

  /// Creates a cipher; fails unless key is 32 bytes and nonce 12 bytes.
  static Result<ChaCha20> Create(std::span<const uint8_t> key,
                                 std::span<const uint8_t> nonce,
                                 uint32_t initial_counter = 0);

  /// XORs the keystream into `data` in place, advancing the stream.
  /// Consecutive calls continue one keystream, whatever their lengths:
  /// runs of four whole blocks go through a 4-lane vector kernel, other
  /// whole 64-byte blocks are XORed word by word, and a partly used
  /// block carries over to the next call.
  void Process(Bytes& data);
  void Process(uint8_t* data, size_t len);

  /// One-shot: returns `data` XOR keystream(key, nonce, counter).
  static Result<Bytes> Apply(std::span<const uint8_t> key,
                             std::span<const uint8_t> nonce,
                             const Bytes& data, uint32_t initial_counter = 0);

  /// The raw 64-byte block function, exposed for test vectors.
  static std::array<uint8_t, 64> Block(const std::array<uint32_t, 8>& key,
                                       const std::array<uint32_t, 3>& nonce,
                                       uint32_t counter);

 private:
  ChaCha20(std::array<uint32_t, 8> key, std::array<uint32_t, 3> nonce,
           uint32_t counter)
      : key_(key), nonce_(nonce), counter_(counter) {}

  std::array<uint32_t, 8> key_;
  std::array<uint32_t, 3> nonce_;
  uint32_t counter_;
  std::array<uint8_t, 64> keystream_{};
  size_t keystream_pos_ = 64;  // exhausted; fetch on first use
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_CHACHA20_H_
