#ifndef HSIS_CRYPTO_MODMATH_H_
#define HSIS_CRYPTO_MODMATH_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/u256.h"

namespace hsis::crypto {

/// (a + b) mod m; inputs must already be reduced (< m).
U256 ModAdd(const U256& a, const U256& b, const U256& m);

/// (a - b) mod m; inputs must already be reduced (< m).
U256 ModSub(const U256& a, const U256& b, const U256& m);

/// (a * b) mod m via full 512-bit product and long division. Correct for
/// any nonzero modulus; the Montgomery context below is ~50x faster for
/// repeated work modulo one odd modulus.
U256 ModMulSlow(const U256& a, const U256& b, const U256& m);

/// gcd(a, b) by Euclid's algorithm.
U256 Gcd(const U256& a, const U256& b);

/// Precomputed context for fast arithmetic modulo a fixed odd modulus,
/// using Montgomery multiplication (CIOS reduction).
///
/// The kernels run at the modulus's width: `limbs()` = ceil(bits / 64)
/// 64-bit limbs (1..4) and R = 2^(64 * limbs()), so a `MontMul` modulo
/// a 64-bit modulus costs 2 limb products instead of 32. Every entry
/// point picks the width once per call; results are the same integers
/// mod n at every width.
///
/// At four limbs (a 193- to 256-bit modulus) there are two kernels with
/// the same results: the portable C++ one and, on x86-64 CPUs whose
/// CPUID reports BMI2 and ADX, an inline-asm one built on `mulx` with
/// `adcx`/`adox` carry chains, about 1.5x faster per modexp. The CPU
/// picks it once per process; there is no option. Both are exposed for
/// tests and benches in crypto/montgomery_lanes.h.
class MontgomeryContext {
 public:
  /// Builds a context; fails unless `modulus` is odd and > 1.
  static Result<MontgomeryContext> Create(const U256& modulus);

  const U256& modulus() const { return n_; }

  /// Active 64-bit limbs of the modulus, ceil(BitLength(n) / 64); the
  /// Montgomery radix is R = 2^(64 * limbs()).
  size_t limbs() const { return limbs_; }

  /// a mod n for any 256-bit `a`, at the modulus's width: one CIOS pass
  /// over all four limbs of `a` against 2^256 mod n. No long division.
  U256 Reduce(const U256& a) const;

  /// Converts a value below n into / out of the Montgomery domain:
  /// ToMont(a) = a * R mod n and FromMont(a) = a * R^-1 mod n.
  U256 ToMont(const U256& a) const;
  U256 FromMont(const U256& a) const;

  /// a * b * R^-1 mod n for Montgomery-domain values a, b < n (the
  /// product of a*R and b*R is returned as (a*b)*R). Limbs above
  /// `limbs()` are not read, so operands must be reduced.
  U256 MontMul(const U256& a, const U256& b) const;

  /// Square of a Montgomery-domain value. Returns exactly
  /// `MontMul(a, a)` — same integer, same reduction — but computes the
  /// double-width square with the symmetric schoolbook (10 limb
  /// products instead of 16 at four limbs) before a separate Montgomery
  /// reduction pass. The ADX kernel derives the reduction's row
  /// multipliers two at a time from -n^-1 mod 2^128, so its squaring
  /// chain is shorter than its `MontMul`'s.
  U256 MontSqr(const U256& a) const;

  /// (a * b) mod n for any 256-bit a and b.
  U256 ModMul(const U256& a, const U256& b) const;

  /// base^exp mod n (plain domain), square-and-multiply. A base >= n is
  /// pre-reduced mod n first (the same convention as `ModInversePrime`),
  /// so ModExp(base, e) == ModExp(base mod n, e) for every base. exp == 0
  /// returns 1 for every base (including 0) and exp == 1 returns the
  /// reduced base, both without entering the ladder.
  U256 ModExp(const U256& base, const U256& exp) const;

  /// a^(n-2) mod n — the inverse of `a` when n is prime and a != 0 mod n.
  /// Fails on a == 0. The library only ever inverts modulo primes (the
  /// quadratic-residue subgroup order q and the field prime p).
  Result<U256> ModInversePrime(const U256& a) const;

 private:
  template <size_t N, bool kAdx>
  friend class MontKernel;  // the width-N kernels in modmath.cc

  MontgomeryContext(const U256& n, uint64_t n0inv, uint64_t n1inv,
                    size_t limbs, const U256& r2, const U256& r256)
      : n_(n),
        n0inv_(n0inv),
        n1inv_(n1inv),
        limbs_(limbs),
        r2_(r2),
        r256_(r256) {}

  // n_, n0inv_ and n1inv_ lead, in this order: the ADX kernels address
  // the two inverse limbs at byte offsets 32 and 40 from the modulus.
  U256 n_;          // modulus
  uint64_t n0inv_;  // -n^{-1} mod 2^64
  uint64_t n1inv_;  // bits 64..127 of -n^{-1} mod 2^128
  size_t limbs_;    // active limbs of n; R = 2^(64 * limbs_)
  U256 r2_;         // R^2 mod n
  U256 r256_;       // 2^256 mod n, `Reduce`'s CIOS multiplier
};

/// Sliding-window modular exponentiation for one fixed exponent.
///
/// The commutative cipher raises millions of bases to the *same* secret
/// exponent, so everything that depends only on the exponent — the
/// left-to-right window schedule — is computed once here and replayed
/// for every base. A window starts at a set bit and ends at the lowest
/// set bit within w bits, so its digit is odd and a run of zero bits
/// between windows costs squarings only. Each `ModExp` call builds the
/// odd powers base^1, base^3, ..., up to the largest digit the schedule
/// uses (at most 2^(w-1) entries) in the Montgomery domain, then walks
/// the schedule: one Montgomery squaring per exponent bit below the
/// leading window and one table multiplication per window. Exactly one
/// `ToMont` and one `FromMont` happen per call; everything in between
/// stays in the Montgomery domain.
///
/// Results are bit-identical to `MontgomeryContext::ModExp(base, e)` for
/// every (base, exponent, modulus): both paths compute the same exact
/// integer base^e mod n, and both pre-reduce a base >= n. Both run on
/// the context's width-matched kernel (the ADX one where the CPU has
/// it), so the suites in tests/crypto/fixed_exponent_test.cc,
/// montgomery_oracle_test.cc and montgomery_lanes_test.cc pin them
/// against a `ModMulSlow` ladder that shares no kernel code.
class FixedExponentContext {
 public:
  /// Largest accepted window width. w=6 already needs a 32-entry table
  /// per call; wider windows only pay off for exponents far beyond 256
  /// bits.
  static constexpr int kMaxWindowBits = 6;

  /// Builds the per-exponent schedule. `window_bits` 0 picks the width
  /// automatically from the exponent's bit length (w=4 for the 256-bit
  /// production exponents); explicit values outside [1, kMaxWindowBits]
  /// are InvalidArgument. The Montgomery context is captured by value so
  /// the schedule stays valid when its owner (e.g. a PrimeGroup inside a
  /// moved CommutativeCipher) relocates.
  static Result<FixedExponentContext> Create(const MontgomeryContext& ctx,
                                             const U256& exponent,
                                             int window_bits = 0);

  /// base^exponent mod n; bit-identical to the naive ladder. A base >= n
  /// is pre-reduced mod n first.
  U256 ModExp(const U256& base) const;

  const U256& exponent() const { return exp_; }
  int window_bits() const { return window_bits_; }

 private:
  friend class FixedExponentLadder;  // the window walk in modmath.cc

  FixedExponentContext(const MontgomeryContext& ctx, const U256& exponent,
                       int window_bits);

  /// One window after the leading one: `squarings` Montgomery
  /// squarings (the window's bits plus the zero run above it), then a
  /// multiplication by base^digit; digit 0 marks the trailing zero run.
  struct Step {
    uint16_t squarings;
    uint8_t digit;
  };

  MontgomeryContext ctx_;
  U256 exp_;
  int window_bits_;
  size_t table_size_;       // odd powers in the table: (max digit + 1) / 2
  uint8_t top_digit_;       // the leading window's digit; 0 iff exp_ == 0
  std::vector<Step> steps_;  // the later windows, most significant first
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_MODMATH_H_
