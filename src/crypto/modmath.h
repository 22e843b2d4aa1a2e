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
/// a 64-bit modulus costs 2 limb products instead of 32. Every
/// plain-domain entry point (`Reduce`, `ModMul`, `ModExp`,
/// `ModInversePrime`) picks the width once per call; results are the
/// same integers mod n at every width.
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
  /// reduction pass.
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
  template <size_t N>
  friend class MontKernel;  // the width-N kernels in modmath.cc

  MontgomeryContext(const U256& n, size_t limbs, uint64_t n0inv,
                    const U256& r2, const U256& r256)
      : n_(n), limbs_(limbs), n0inv_(n0inv), r2_(r2), r256_(r256) {}

  U256 n_;          // modulus
  size_t limbs_;    // active limbs of n; R = 2^(64 * limbs_)
  uint64_t n0inv_;  // -n^{-1} mod 2^64
  U256 r2_;         // R^2 mod n
  U256 r256_;       // 2^256 mod n, `Reduce`'s CIOS multiplier
};

/// Fixed-window modular exponentiation for one fixed exponent.
///
/// The commutative cipher raises millions of bases to the *same* secret
/// exponent, so everything that depends only on the exponent — the
/// left-to-right window digit schedule — is computed once here and
/// replayed for every base. Each `ModExp` call builds a 2^w-entry table
/// of base powers in the Montgomery domain, then walks the schedule with
/// w Montgomery squarings per window and one table multiplication per
/// nonzero digit. Exactly one `ToMont` and one `FromMont` happen per
/// call; everything in between stays in the Montgomery domain.
///
/// Results are bit-identical to `MontgomeryContext::ModExp(base, e)` for
/// every (base, exponent, modulus): both paths compute the same exact
/// integer base^e mod n, and both pre-reduce a base >= n. Both run on
/// the context's width-matched kernel, so the suites in
/// tests/crypto/fixed_exponent_test.cc and montgomery_oracle_test.cc
/// pin them against a `ModMulSlow` ladder that shares no kernel code.
class FixedExponentContext {
 public:
  /// Largest accepted window width. w=6 already needs a 64-entry table
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
  FixedExponentContext(const MontgomeryContext& ctx, const U256& exponent,
                       int window_bits);

  MontgomeryContext ctx_;
  U256 exp_;
  int window_bits_;
  size_t table_size_;            // 1 + max digit in the schedule
  U256 mont_one_;                // ToMont(1), the table's 0th power
  std::vector<uint8_t> digits_;  // window digits, most significant first
};

}  // namespace hsis::crypto

#endif  // HSIS_CRYPTO_MODMATH_H_
