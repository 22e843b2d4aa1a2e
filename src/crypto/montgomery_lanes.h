#ifndef HSIS_CRYPTO_MONTGOMERY_LANES_H_
#define HSIS_CRYPTO_MONTGOMERY_LANES_H_

#include "common/u256.h"
#include "crypto/modmath.h"

/// \file
/// Internal: the 4-limb (R = 2^256) Montgomery kernels behind
/// `MontgomeryContext` and `FixedExponentContext`. Exposed so tests can
/// run every kernel on the same inputs and benches can name the one in
/// use; library code goes through the two contexts, which pick the
/// active lane once per call.

namespace hsis::crypto::internal {

/// One 4-limb Montgomery kernel and both modexp ladders instantiated on
/// it. Every function requires `ctx.limbs() == 4` (a modulus of 193 to
/// 256 bits) and returns the same integers on every lane.
struct MontLane4 {
  /// "portable" or "adx"; bench records stamp it as their `lane`.
  const char* name;
  /// *out = a * b * 2^-256 mod n (`MontgomeryContext::MontMul`). Reads
  /// a and b before writing *out, so all three may alias.
  void (*mul)(const MontgomeryContext& ctx, const U256& a, const U256& b,
              U256* out);
  /// *out = a * a * 2^-256 mod n (`MontgomeryContext::MontSqr`); `a`
  /// and `out` may alias.
  void (*sqr)(const MontgomeryContext& ctx, const U256& a, U256* out);
  /// `MontgomeryContext::ModExp`'s square-and-multiply ladder.
  U256 (*mod_exp)(const MontgomeryContext& ctx, const U256& base,
                  const U256& exp);
  /// `FixedExponentContext::ModExp`'s window walk.
  U256 (*fixed_mod_exp)(const FixedExponentContext& fx, const U256& base);
};

/// The portable C++ kernel (`unsigned __int128` CIOS and SOS square);
/// runs on every CPU and is the oracle for the other lanes.
const MontLane4& PortableLane4();

/// The BMI2 + ADX kernel (`mulx` with `adcx`/`adox` carry chains), or
/// nullptr when this build targets another architecture or the CPU
/// lacks the `bmi2` or `adx` CPUID bits.
const MontLane4* AdxLane4();

/// The lane the contexts use for 4-limb moduli: ADX when available,
/// else portable. Chosen once per process from CPUID.
const MontLane4& ActiveLane4();

}  // namespace hsis::crypto::internal

#endif  // HSIS_CRYPTO_MONTGOMERY_LANES_H_
