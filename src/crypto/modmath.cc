#include "crypto/modmath.h"

#include <algorithm>
#include <array>
#include <type_traits>

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

  // R = 2^(64 * limbs) is not representable when limbs == 4, so reduce
  // it in 512 bits, then square R mod n with the generic divider.
  const size_t limbs = (modulus.BitLength() + 63) / 64;
  U256 r_mod_n = (U512(1) << (64 * limbs)).Mod(modulus);
  U256 r2 = U256::MulFull(r_mod_n, r_mod_n).Mod(modulus);
  U256 r256 = (U512(1) << 256).Mod(modulus);

  return MontgomeryContext(modulus, limbs, n0inv, r2, r256);
}

namespace {

template <size_t N>
using Limbs = std::array<uint64_t, N>;

template <size_t N>
U256 Widen(const Limbs<N>& a) {
  U256 out;
  for (size_t i = 0; i < N; ++i) out.limb[i] = a[i];
  return out;
}

// Final conditional subtraction shared by both kernels: given the
// (N + 1)-limb reduction output t < 2n, returns it minus n when it is
// >= n, else unchanged. Inline limb arithmetic, so the kernels never
// leave registers for an out-of-line compare and subtract.
template <size_t N>
inline Limbs<N> SubtractModulusOnce(const uint64_t* t, const U256& n) {
  Limbs<N> d{};
  uint64_t borrow = 0;
#pragma GCC unroll 4
  for (size_t j = 0; j < N; ++j) {
    uint128 diff = static_cast<uint128>(t[j]) - n.limb[j] - borrow;
    d[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  // t >= n iff the top limb is set or the low N-limb subtraction did
  // not borrow; the result is then the low N limbs of t - n.
  if (t[N] != 0 || borrow == 0) return d;
#pragma GCC unroll 4
  for (size_t j = 0; j < N; ++j) d[j] = t[j];
  return d;
}

}  // namespace

/// The Montgomery kernels at a fixed width of N limbs (R = 2^(64N)),
/// reading the modulus and constants straight from the context. Every
/// loop runs a compile-time N times and `#pragma GCC unroll` flattens
/// it completely, so the t[] accumulator lives in registers: without it
/// GCC at -O2 keeps the loops rolled and every limb product goes
/// through memory. N = 4 is the full 256-bit kernel.
template <size_t N>
class MontKernel {
 public:
  using Value = Limbs<N>;

  explicit MontKernel(const MontgomeryContext& ctx) : ctx_(ctx) {}

  /// CIOS (coarsely integrated operand scanning) over the A limbs of
  /// `a`: a * b * 2^(-64A) mod n, for any A-limb a and any b with
  /// a * b < 2^(64A) * n (in particular b < n, or a < n and b < R).
  template <size_t A>
  Limbs<N> Cios(const uint64_t* a, const Limbs<N>& b) const {
    const U256& n = ctx_.n_;
    const uint64_t n0inv = ctx_.n0inv_;
    // t has N + 2 limbs of headroom.
    uint64_t t[N + 2] = {};

#pragma GCC unroll 4
    for (size_t i = 0; i < A; ++i) {
      // t += a[i] * b
      uint64_t carry = 0;
#pragma GCC unroll 4
      for (size_t j = 0; j < N; ++j) {
        uint128 cur = static_cast<uint128>(a[i]) * b[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      uint128 cur = static_cast<uint128>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(cur);
      t[N + 1] = static_cast<uint64_t>(cur >> 64);

      // m = t[0] * n0inv mod 2^64; t += m * n; t >>= 64
      uint64_t m = t[0] * n0inv;
      carry = 0;
#pragma GCC unroll 4
      for (size_t j = 0; j < N; ++j) {
        uint128 c2 = static_cast<uint128>(m) * n.limb[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(c2);
        carry = static_cast<uint64_t>(c2 >> 64);
      }
      cur = static_cast<uint128>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(cur);
      t[N + 1] += static_cast<uint64_t>(cur >> 64);

      // shift t right by one limb
#pragma GCC unroll 5
      for (size_t j = 0; j < N + 1; ++j) t[j] = t[j + 1];
      t[N + 1] = 0;
    }

    return SubtractModulusOnce<N>(t, n);
  }

  Limbs<N> Mul(const Limbs<N>& a, const Limbs<N>& b) const {
    return Cios<N>(a.data(), b);
  }

  Limbs<N> Sqr(const Limbs<N>& a) const {
    const U256& n = ctx_.n_;
    const uint64_t n0inv = ctx_.n0inv_;
    // Symmetric schoolbook square into 2N limbs: the cross products are
    // computed once and doubled, then the N diagonal squares are added.
    uint64_t t[2 * N + 1] = {};

#pragma GCC unroll 4
    for (size_t i = 0; i < N; ++i) {
      uint64_t carry = 0;
#pragma GCC unroll 3
      for (size_t j = i + 1; j < N; ++j) {
        uint128 cur =
            static_cast<uint128>(a[i]) * a[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      t[i + N] = carry;
    }

    // Double the cross products. The cross sum is (a^2 - sum a[i]^2) / 2
    // < 2^(128N - 1), so the doubled value still fits in 2N limbs.
    uint64_t top = 0;
#pragma GCC unroll 8
    for (size_t k = 0; k < 2 * N; ++k) {
      uint64_t next = t[k] >> 63;
      t[k] = (t[k] << 1) | top;
      top = next;
    }

    uint64_t carry = 0;
#pragma GCC unroll 4
    for (size_t i = 0; i < N; ++i) {
      uint128 sq = static_cast<uint128>(a[i]) * a[i];
      uint128 lo = static_cast<uint128>(t[2 * i]) +
                   static_cast<uint64_t>(sq) + carry;
      t[2 * i] = static_cast<uint64_t>(lo);
      uint128 hi = static_cast<uint128>(t[2 * i + 1]) +
                   static_cast<uint64_t>(sq >> 64) +
                   static_cast<uint64_t>(lo >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(hi);
      carry = static_cast<uint64_t>(hi >> 64);
    }

    // Separate (SOS) Montgomery reduction of the 2N-limb square: zero
    // the low limbs one at a time with multiples of n, then take the
    // high half. Row i's carry lands in t[i + N]; the carry out of that
    // limb rides into row i + 1's top limb (t[i + N + 1]), and the last
    // one becomes t[2N].
    uint64_t spill = 0;
#pragma GCC unroll 4
    for (size_t i = 0; i < N; ++i) {
      uint64_t m = t[i] * n0inv;
      carry = 0;
#pragma GCC unroll 4
      for (size_t j = 0; j < N; ++j) {
        uint128 cur = static_cast<uint128>(m) * n.limb[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      uint128 cur = static_cast<uint128>(t[i + N]) + carry + spill;
      t[i + N] = static_cast<uint64_t>(cur);
      spill = static_cast<uint64_t>(cur >> 64);
    }
    t[2 * N] = spill;

    return SubtractModulusOnce<N>(t + N, n);
  }

  /// a mod n for any 256-bit a: CIOS over all four limbs against
  /// 2^256 mod n gives a * 2^256 * 2^-256.
  Limbs<N> Reduce(const U256& a) const {
    return Cios<4>(a.limb.data(), Narrow(ctx_.r256_));
  }

  /// `a` as an N-limb operand below R: reduced first only when it has
  /// limbs above N (never at N = 4), so it is never truncated.
  Limbs<N> Operand(const U256& a) const {
    if constexpr (N < 4) {
      for (size_t i = N; i < 4; ++i) {
        if (a.limb[i] != 0) return Reduce(a);
      }
    }
    return Narrow(a);
  }

  /// a mod n as an N-limb value, for any 256-bit a.
  Limbs<N> Reduced(const U256& a) const {
    return a >= ctx_.n_ ? Reduce(a) : Narrow(a);
  }

  Limbs<N> ToMont(const Limbs<N>& a) const {
    return Mul(a, Narrow(ctx_.r2_));
  }

  Limbs<N> FromMont(const Limbs<N>& a) const { return Mul(a, One()); }

  static Limbs<N> One() {
    Limbs<N> one{};
    one[0] = 1;
    return one;
  }

  /// The low N limbs of `a`; the caller guarantees the rest are zero.
  static Limbs<N> Narrow(const U256& a) {
    Limbs<N> out{};
    for (size_t i = 0; i < N; ++i) out[i] = a.limb[i];
    return out;
  }

 private:
  const MontgomeryContext& ctx_;
};

namespace {

/// Calls `body(k)` with `k` the kernel at the width of `ctx`: the one
/// switch each plain-domain entry point takes per call, so the N-limb
/// body below it never branches on the width.
template <typename Body>
U256 AtWidth(const MontgomeryContext& ctx, const Body& body) {
  switch (ctx.limbs()) {
    case 1:
      return body(MontKernel<1>(ctx));
    case 2:
      return body(MontKernel<2>(ctx));
    case 3:
      return body(MontKernel<3>(ctx));
    default:
      return body(MontKernel<4>(ctx));
  }
}

}  // namespace

U256 MontgomeryContext::Reduce(const U256& a) const {
  return AtWidth(*this, [&](const auto& k) { return Widen(k.Reduce(a)); });
}

U256 MontgomeryContext::MontMul(const U256& a, const U256& b) const {
  return AtWidth(*this, [&](const auto& k) {
    return Widen(k.Mul(k.Narrow(a), k.Narrow(b)));
  });
}

U256 MontgomeryContext::MontSqr(const U256& a) const {
  return AtWidth(*this,
                 [&](const auto& k) { return Widen(k.Sqr(k.Narrow(a))); });
}

U256 MontgomeryContext::ToMont(const U256& a) const {
  return AtWidth(*this,
                 [&](const auto& k) { return Widen(k.ToMont(k.Narrow(a))); });
}

U256 MontgomeryContext::FromMont(const U256& a) const {
  return AtWidth(*this, [&](const auto& k) {
    return Widen(k.FromMont(k.Narrow(a)));
  });
}

U256 MontgomeryContext::ModMul(const U256& a, const U256& b) const {
  // MontMul(a, R^2) = a*R and MontMul(a*R, b) = a*b (mod n): two
  // reductions instead of converting both operands in and the product
  // out. Both operands are below R and one operand of each product is
  // below n, which keeps every intermediate below 2n, so the result is
  // the fully reduced a*b mod n.
  return AtWidth(*this, [&](const auto& k) {
    return Widen(k.Mul(k.ToMont(k.Operand(a)), k.Operand(b)));
  });
}

U256 MontgomeryContext::ModExp(const U256& base, const U256& exp) const {
  return AtWidth(*this, [&](const auto& k) {
    // Pre-reduce like ModInversePrime so base >= n and base mod n agree.
    const auto b = k.Reduced(base);
    size_t bits = exp.BitLength();
    if (bits == 0) return U256(1);  // x^0 == 1, including 0^0 by convention
    if (bits == 1) return Widen(b);  // exp == 1
    auto result = k.ToMont(k.One());
    auto acc = k.ToMont(b);
    for (size_t i = 0; i < bits; ++i) {
      if (exp.Bit(i)) result = k.Mul(result, acc);
      acc = k.Mul(acc, acc);
    }
    return Widen(k.FromMont(result));
  });
}

Result<U256> MontgomeryContext::ModInversePrime(const U256& a) const {
  U256 reduced = (a >= n_) ? Reduce(a) : a;
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
  return AtWidth(ctx_, [&](const auto& k) {
    using Value = typename std::decay_t<decltype(k)>::Value;
    // Same pre-reduction and exp==0/1 short-circuits as the naive ladder.
    const Value b = k.Reduced(base);
    if (digits_.empty()) return U256(1);
    if (digits_.size() == 1 && digits_[0] == 1) return Widen(b);

    // Power table in the Montgomery domain, built only up to the largest
    // digit the schedule actually uses (<= 2^w entries).
    Value table[size_t{1} << kMaxWindowBits];
    table[0] = k.Narrow(mont_one_);
    if (table_size_ > 1) table[1] = k.ToMont(b);
    for (size_t i = 2; i < table_size_; ++i) {
      table[i] = k.Mul(table[i - 1], table[1]);
    }

    // Left-to-right walk: the leading digit seeds the accumulator, every
    // later window costs w Montgomery squarings plus one table product
    // when its digit is nonzero.
    Value acc = table[digits_[0]];
    for (size_t i = 1; i < digits_.size(); ++i) {
      for (int s = 0; s < window_bits_; ++s) acc = k.Sqr(acc);
      if (digits_[i] != 0) acc = k.Mul(acc, table[digits_[i]]);
    }
    return Widen(k.FromMont(acc));
  });
}

}  // namespace hsis::crypto
