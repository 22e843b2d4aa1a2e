#include "crypto/modmath.h"

#include <algorithm>

#include "common/logging.h"

namespace hsis::crypto {

using uint128 = unsigned __int128;

U256 ModAdd(const U256& a, const U256& b, const U256& m) {
  uint64_t carry = 0;
  U256 sum = U256::AddWithCarry(a, b, &carry);
  if (carry != 0 || sum >= m) sum = sum - m;
  return sum;
}

U256 ModSub(const U256& a, const U256& b, const U256& m) {
  uint64_t borrow = 0;
  U256 diff = U256::SubWithBorrow(a, b, &borrow);
  if (borrow != 0) diff = diff + m;
  return diff;
}

U256 ModMulSlow(const U256& a, const U256& b, const U256& m) {
  return U256::MulFull(a, b).Mod(m);
}

U256 Gcd(const U256& a, const U256& b) {
  U256 x = a, y = b;
  while (!y.IsZero()) {
    U256 r = DivMod(x, y).remainder;
    x = y;
    y = r;
  }
  return x;
}

Result<MontgomeryContext> MontgomeryContext::Create(const U256& modulus) {
  if (!modulus.IsOdd() || modulus <= U256(1)) {
    return Status::InvalidArgument(
        "Montgomery context requires an odd modulus > 1");
  }
  // n0inv = -n^{-1} mod 2^64 by Newton–Hensel lifting: each iteration
  // doubles the number of correct low bits of the inverse.
  uint64_t n0 = modulus.limb[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  uint64_t n0inv = ~inv + 1;  // negate mod 2^64

  // r2 = 2^512 mod n, computed by doubling 2^256 mod n 256 times would be
  // slow; instead reduce the 512-bit value (1 << 512 is not representable,
  // so reduce (2^256 mod n)^2 with the generic divider).
  U512 r = U512(1) << 256;
  U256 r_mod_n = r.Mod(modulus);
  U256 r2 = U256::MulFull(r_mod_n, r_mod_n).Mod(modulus);

  return MontgomeryContext(modulus, n0inv, r2);
}

namespace {

// Final conditional subtraction shared by both kernels: given the
// 5-limb reduction output (t0..t3, t4) < 2n, returns it minus n when it
// is >= n, else unchanged. Inline limb arithmetic, so the kernels
// never leave registers for an out-of-line U256 compare and subtract.
inline U256 SubtractModulusOnce(const uint64_t t[5], const U256& n) {
  uint64_t d[4];
  uint64_t borrow = 0;
#pragma GCC unroll 4
  for (size_t j = 0; j < 4; ++j) {
    uint128 diff = static_cast<uint128>(t[j]) - n.limb[j] - borrow;
    d[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  // t >= n iff the top limb is set or the low 256-bit subtraction did
  // not borrow; the result is then the low 256 bits of t - n.
  if (t[4] != 0 || borrow == 0) return U256(d[0], d[1], d[2], d[3]);
  return U256(t[0], t[1], t[2], t[3]);
}

}  // namespace

// Both kernels below are fixed 4-limb loops that `#pragma GCC unroll`
// flattens completely, so the t[] accumulator lives in registers: without
// it GCC at -O2 keeps the loops rolled and every limb product goes
// through memory.

U256 MontgomeryContext::MontMul(const U256& a, const U256& b) const {
  // CIOS (coarsely integrated operand scanning) Montgomery multiplication.
  // t has 4 + 2 limbs of headroom.
  uint64_t t[6] = {0, 0, 0, 0, 0, 0};

#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      uint128 cur = static_cast<uint128>(a.limb[i]) * b.limb[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    uint128 cur = static_cast<uint128>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(cur);
    t[5] = static_cast<uint64_t>(cur >> 64);

    // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
    uint64_t m = t[0] * n0inv_;
    carry = 0;
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      uint128 c2 = static_cast<uint128>(m) * n_.limb[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(c2);
      carry = static_cast<uint64_t>(c2 >> 64);
    }
    cur = static_cast<uint128>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(cur);
    t[5] += static_cast<uint64_t>(cur >> 64);

    // shift t right by one limb
#pragma GCC unroll 5
    for (size_t j = 0; j < 5; ++j) t[j] = t[j + 1];
    t[5] = 0;
  }

  return SubtractModulusOnce(t, n_);
}

U256 MontgomeryContext::MontSqr(const U256& a) const {
  // Symmetric schoolbook square into 8 limbs: the 6 cross products are
  // computed once and doubled, then the 4 diagonal squares are added.
  uint64_t t[9] = {0};

#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    uint64_t carry = 0;
#pragma GCC unroll 3
    for (size_t j = i + 1; j < 4; ++j) {
      uint128 cur =
          static_cast<uint128>(a.limb[i]) * a.limb[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    t[i + 4] = carry;
  }

  // Double the cross products. The cross sum is (a^2 - sum a[i]^2) / 2
  // < 2^511, so the doubled value still fits in 8 limbs.
  uint64_t top = 0;
#pragma GCC unroll 8
  for (size_t k = 0; k < 8; ++k) {
    uint64_t next = t[k] >> 63;
    t[k] = (t[k] << 1) | top;
    top = next;
  }

  uint64_t carry = 0;
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    uint128 sq = static_cast<uint128>(a.limb[i]) * a.limb[i];
    uint128 lo = static_cast<uint128>(t[2 * i]) + static_cast<uint64_t>(sq) +
                 carry;
    t[2 * i] = static_cast<uint64_t>(lo);
    uint128 hi = static_cast<uint128>(t[2 * i + 1]) +
                 static_cast<uint64_t>(sq >> 64) +
                 static_cast<uint64_t>(lo >> 64);
    t[2 * i + 1] = static_cast<uint64_t>(hi);
    carry = static_cast<uint64_t>(hi >> 64);
  }

  // Separate (SOS) Montgomery reduction of the 512-bit square: zero the
  // low limbs one at a time with multiples of n, then take the high half.
  // Row i's carry lands in t[i + 4]; the carry out of that limb rides
  // into row i + 1's top limb (t[i + 5]), and the last one becomes t[8].
  uint64_t spill = 0;
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    uint64_t m = t[i] * n0inv_;
    carry = 0;
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      uint128 cur = static_cast<uint128>(m) * n_.limb[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    uint128 cur = static_cast<uint128>(t[i + 4]) + carry + spill;
    t[i + 4] = static_cast<uint64_t>(cur);
    spill = static_cast<uint64_t>(cur >> 64);
  }
  t[8] = spill;

  return SubtractModulusOnce(t + 4, n_);
}

U256 MontgomeryContext::ToMont(const U256& a) const { return MontMul(a, r2_); }

U256 MontgomeryContext::FromMont(const U256& a) const {
  return MontMul(a, U256(1));
}

U256 MontgomeryContext::ModMul(const U256& a, const U256& b) const {
  // MontMul(a, R^2) = a*R and MontMul(a*R, b) = a*b (mod n): two
  // reductions instead of converting both operands in and the product
  // out. One operand of each product is below n, which keeps every
  // intermediate below 2n, so the result is the fully reduced a*b mod n
  // for any 256-bit a and b.
  return MontMul(MontMul(a, r2_), b);
}

U256 MontgomeryContext::ModExp(const U256& base, const U256& exp) const {
  // Pre-reduce like ModInversePrime so base >= n and base mod n agree.
  U256 b = (base >= n_) ? DivMod(base, n_).remainder : base;
  size_t bits = exp.BitLength();
  if (bits == 0) return U256(1);  // x^0 == 1, including 0^0 by convention
  if (bits == 1) return b;        // exp == 1
  U256 result = ToMont(U256(1));
  U256 acc = ToMont(b);
  for (size_t i = 0; i < bits; ++i) {
    if (exp.Bit(i)) result = MontMul(result, acc);
    acc = MontMul(acc, acc);
  }
  return FromMont(result);
}

Result<U256> MontgomeryContext::ModInversePrime(const U256& a) const {
  U256 reduced = (a >= n_) ? DivMod(a, n_).remainder : a;
  if (reduced.IsZero()) {
    return Status::InvalidArgument("zero has no modular inverse");
  }
  return ModExp(reduced, n_ - U256(2));
}

namespace {

// Window width minimizing squarings + table mults for an exponent of the
// given bit length; every production exponent (256-bit) lands on w=4.
int AutoWindowBits(size_t bits) {
  if (bits <= 6) return 2;
  if (bits <= 24) return 3;
  if (bits <= 336) return 4;
  return 5;
}

}  // namespace

Result<FixedExponentContext> FixedExponentContext::Create(
    const MontgomeryContext& ctx, const U256& exponent, int window_bits) {
  if (window_bits == 0) window_bits = AutoWindowBits(exponent.BitLength());
  if (window_bits < 1 || window_bits > kMaxWindowBits) {
    return Status::InvalidArgument(
        "fixed-exponent window width must be in [1, 6] (0 = auto)");
  }
  return FixedExponentContext(ctx, exponent, window_bits);
}

FixedExponentContext::FixedExponentContext(const MontgomeryContext& ctx,
                                           const U256& exponent,
                                           int window_bits)
    : ctx_(ctx),
      exp_(exponent),
      window_bits_(window_bits),
      table_size_(1),
      mont_one_(ctx.ToMont(U256(1))) {
  // Slice the exponent into w-bit digits from the most significant bit
  // down; the top digit absorbs the ragged remainder, so every later
  // window is exactly w squarings. An exponent of 0 yields an empty
  // schedule.
  const size_t bits = exp_.BitLength();
  const size_t w = static_cast<size_t>(window_bits_);
  const size_t windows = (bits + w - 1) / w;
  digits_.reserve(windows);
  for (size_t i = 0; i < windows; ++i) {
    const size_t lo = (windows - 1 - i) * w;
    const size_t hi = std::min(lo + w, bits);
    uint8_t digit = 0;
    for (size_t b = hi; b-- > lo;) {
      digit = static_cast<uint8_t>((digit << 1) | (exp_.Bit(b) ? 1 : 0));
    }
    digits_.push_back(digit);
    table_size_ = std::max(table_size_, static_cast<size_t>(digit) + 1);
  }
}

U256 FixedExponentContext::ModExp(const U256& base) const {
  // Same pre-reduction and exp==0/1 short-circuits as the naive ladder.
  U256 b = (base >= ctx_.modulus()) ? DivMod(base, ctx_.modulus()).remainder
                                    : base;
  if (digits_.empty()) return U256(1);
  if (digits_.size() == 1 && digits_[0] == 1) return b;

  // Power table in the Montgomery domain, built only up to the largest
  // digit the schedule actually uses (<= 2^w entries).
  U256 table[size_t{1} << kMaxWindowBits];
  table[0] = mont_one_;
  if (table_size_ > 1) table[1] = ctx_.ToMont(b);
  for (size_t i = 2; i < table_size_; ++i) {
    table[i] = ctx_.MontMul(table[i - 1], table[1]);
  }

  // Left-to-right walk: the leading digit seeds the accumulator, every
  // later window costs w Montgomery squarings plus one table product
  // when its digit is nonzero.
  U256 acc = table[digits_[0]];
  for (size_t i = 1; i < digits_.size(); ++i) {
    for (int s = 0; s < window_bits_; ++s) acc = ctx_.MontSqr(acc);
    if (digits_[i] != 0) acc = ctx_.MontMul(acc, table[digits_[i]]);
  }
  return ctx_.FromMont(acc);
}

}  // namespace hsis::crypto
