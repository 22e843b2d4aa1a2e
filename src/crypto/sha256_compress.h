#ifndef HSIS_CRYPTO_SHA256_COMPRESS_H_
#define HSIS_CRYPTO_SHA256_COMPRESS_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Internal: the SHA-256 block-compression functions behind `Sha256`.
/// Exposed so tests can run both implementations on the same input;
/// library code goes through `Sha256`.

namespace hsis::crypto::internal {

/// Compresses `blocks` whole 64-byte blocks starting at `data` into
/// `state` (FIPS 180-4 section 6.2.2, steps 1-4, once per block).
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                                  size_t blocks);

/// Portable scalar compression; runs on every CPU.
void Sha256CompressScalar(uint32_t state[8], const uint8_t* data,
                          size_t blocks);

/// The x86 SHA extensions compression (SHA-NI), or nullptr when this
/// build targets another architecture or the CPU lacks the `sha` or
/// `sse4.1` CPUID bits.
Sha256CompressFn Sha256CompressShaNi();

/// The function `Sha256` uses: SHA-NI when available, else scalar.
/// Chosen once per process from CPUID.
Sha256CompressFn Sha256Compress();

}  // namespace hsis::crypto::internal

#endif  // HSIS_CRYPTO_SHA256_COMPRESS_H_
