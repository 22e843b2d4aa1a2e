#include "crypto/modmath.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/logging.h"
#include "crypto/montgomery_lanes.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#define HSIS_MONT_ADX 1
#endif

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
  // -n^{-1} mod 2^128 by Newton–Hensel lifting: each iteration doubles
  // the number of correct low bits of the inverse. Its low limb, n0inv,
  // is every kernel's per-row constant; the high limb lets the ADX
  // square derive two rows' multipliers at once.
  const uint128 n01 =
      (static_cast<uint128>(modulus.limb[1]) << 64) | modulus.limb[0];
  uint128 inv = 1;
  for (int i = 0; i < 7; ++i) inv *= 2 - n01 * inv;
  const uint128 neg_inv = 0 - inv;
  const uint64_t n0inv = static_cast<uint64_t>(neg_inv);
  const uint64_t n1inv = static_cast<uint64_t>(neg_inv >> 64);

  // R = 2^(64 * limbs) is not representable when limbs == 4, so reduce
  // it in 512 bits, then square R mod n with the generic divider.
  const size_t limbs = (modulus.BitLength() + 63) / 64;
  U256 r_mod_n = (U512(1) << (64 * limbs)).Mod(modulus);
  U256 r2 = U256::MulFull(r_mod_n, r_mod_n).Mod(modulus);
  U256 r256 = (U512(1) << 256).Mod(modulus);

  return MontgomeryContext(modulus, n0inv, n1inv, limbs, r2, r256);
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

#ifdef HSIS_MONT_ADX

// The 4-limb products on BMI2 + ADX (the ADX lane). `mulx` multiplies
// by rdx without touching the flags, so each row runs two independent
// carry chains: `adcx` (CF) adds the high halves and `adox` (OF) the
// low halves. GCC emits neither instruction from `unsigned __int128`
// code, even with target("bmi2,adx"), hence the asm. Operands are only
// read and results leave in registers, so the operands may alias the
// caller's result. The asm holds at most 13 general-purpose registers
// (rdx included), which leaves one spare beside rsp and a frame
// pointer, so it allocates at -O0 and under the sanitizers too.
//
// An asm operand name, spliced into the templates below: HSIS_R(t0)
// is "%[t0]".
#define HSIS_R(x) "%[" #x "]"

// rdx = T0 * n0inv mod 2^64, the multiplier m of the reduction row
// that zeroes T0. n0inv and n1inv sit at byte offsets 32 and 40 from
// the modulus (the head of `MontgomeryContext`).
#define HSIS_ADX_ROW_M(T0)        \
  "movq " HSIS_R(T0) ", %%rdx\n\t" \
  "imulq 32(%[n]), %%rdx\n\t"

// The multipliers of two reduction rows at once: rdx = m0 and M = m1,
// where m1:m0 = T1:T0 * -n^-1 mod 2^128. Row T0 then need not finish
// before row T1's multiplier is known, which halves the serial
// multiply chain of the reduction.
#define HSIS_ADX_PAIR_M(T0, T1, M)      \
  "movq " HSIS_R(T0) ", %%rdx\n\t"      \
  "mulxq 32(%[n]), %[lo], " M "\n\t"    \
  "imulq 40(%[n]), %%rdx\n\t"           \
  "addq %%rdx, " M "\n\t"               \
  "movq " HSIS_R(T1) ", %%rdx\n\t"      \
  "imulq 32(%[n]), %%rdx\n\t"           \
  "addq %%rdx, " M "\n\t"               \
  "movq %[lo], %%rdx\n\t"

// T0..T4 += rdx * n, with rdx the row's multiplier m. T0 ends zero and
// the carry out of T4 is left in CF. The row's carry into T4 is below
// 2^64, so folding OF into the top product's high half cannot overflow.
#define HSIS_ADX_REDUCE_ROW(T0, T1, T2, T3, T4)          \
  "xorl %k[lo], %k[lo]\n\t"                              \
  "mulxq (%[n]), %[lo], %[hi]\n\t"                       \
  "adoxq %[lo], " HSIS_R(T0) "\n\t"                      \
  "adcxq %[hi], " HSIS_R(T1) "\n\t"                      \
  "mulxq 8(%[n]), %[lo], %[hi]\n\t"                      \
  "adoxq %[lo], " HSIS_R(T1) "\n\t"                      \
  "adcxq %[hi], " HSIS_R(T2) "\n\t"                      \
  "mulxq 16(%[n]), %[lo], %[hi]\n\t"                     \
  "adoxq %[lo], " HSIS_R(T2) "\n\t"                      \
  "adcxq %[hi], " HSIS_R(T3) "\n\t"                      \
  "mulxq 24(%[n]), %[lo], %[hi]\n\t"                     \
  "adoxq %[lo], " HSIS_R(T3) "\n\t"                      \
  "adoxq " HSIS_R(T0) ", %[hi]\n\t"                      \
  "adcxq %[hi], " HSIS_R(T4) "\n\t"

// T0..T5 += a[i] * b with a[i] at byte offset OFF. T5 enters as the
// previous row's zeroed limb and leaves holding the carry.
#define HSIS_ADX_PRODUCT_ROW(OFF, T0, T1, T2, T3, T4, T5) \
  "movq " #OFF "(%[a]), %%rdx\n\t"                        \
  "xorl %k[" #T5 "], %k[" #T5 "]\n\t"                      \
  "mulxq (%[b]), %[lo], %[hi]\n\t"                        \
  "adoxq %[lo], " HSIS_R(T0) "\n\t"                       \
  "adcxq %[hi], " HSIS_R(T1) "\n\t"                       \
  "mulxq 8(%[b]), %[lo], %[hi]\n\t"                       \
  "adoxq %[lo], " HSIS_R(T1) "\n\t"                       \
  "adcxq %[hi], " HSIS_R(T2) "\n\t"                       \
  "mulxq 16(%[b]), %[lo], %[hi]\n\t"                      \
  "adoxq %[lo], " HSIS_R(T2) "\n\t"                       \
  "adcxq %[hi], " HSIS_R(T3) "\n\t"                       \
  "mulxq 24(%[b]), %[lo], %[hi]\n\t"                      \
  "adoxq %[lo], " HSIS_R(T3) "\n\t"                       \
  "adoxq " HSIS_R(T5) ", %[hi]\n\t"                       \
  "adcxq %[hi], " HSIS_R(T4) "\n\t"                       \
  "adcxq " HSIS_R(T5) ", " HSIS_R(T5) "\n\t"

// The final conditional subtraction: t = T4:T3:T2:T1:T0 < 2n, and
// lo, hi, rdx, S receive t - n when t >= n, else t. T4 is the fifth
// limb: n can be >= 2^255, so t can reach past 2^256.
#define HSIS_ADX_SUBTRACT_ONCE(T0, T1, T2, T3, T4, S) \
  "movq " HSIS_R(T0) ", %[lo]\n\t"                    \
  "subq (%[n]), %[lo]\n\t"                            \
  "movq " HSIS_R(T1) ", %[hi]\n\t"                    \
  "sbbq 8(%[n]), %[hi]\n\t"                           \
  "movq " HSIS_R(T2) ", %%rdx\n\t"                    \
  "sbbq 16(%[n]), %%rdx\n\t"                          \
  "movq " HSIS_R(T3) ", " HSIS_R(S) "\n\t"            \
  "sbbq 24(%[n]), " HSIS_R(S) "\n\t"                  \
  "sbbq $0, " HSIS_R(T4) "\n\t"                       \
  "cmovcq " HSIS_R(T0) ", %[lo]\n\t"                  \
  "cmovcq " HSIS_R(T1) ", %[hi]\n\t"                  \
  "cmovcq " HSIS_R(T2) ", %%rdx\n\t"                  \
  "cmovcq " HSIS_R(T3) ", " HSIS_R(S) "\n\t"

/// CIOS a * b * 2^-256 mod n, the same integer as `Cios<4>`: row i adds
/// a[i] * b, then m * n, into six rotating registers t0..t5, and the
/// limb zeroed by the reduction becomes the next row's carry limb.
[[gnu::always_inline]] inline Limbs<4> MulAdx(const Limbs<4>& a,
                                              const Limbs<4>& b,
                                              const U256& n) {
  uint64_t t0, t1, t2, t3, t4, t5, lo, hi, d = a[0];
  asm(
      // Row 0 on an empty accumulator: t0..t4 = a[0] * b, t5 = 0.
      "xorl %k[t5], %k[t5]\n\t"
      "mulxq (%[b]), %[t0], %[t1]\n\t"
      "mulxq 8(%[b]), %[lo], %[t2]\n\t"
      "adcxq %[lo], %[t1]\n\t"
      "mulxq 16(%[b]), %[lo], %[t3]\n\t"
      "adcxq %[lo], %[t2]\n\t"
      "mulxq 24(%[b]), %[lo], %[t4]\n\t"
      "adcxq %[lo], %[t3]\n\t"
      "adcxq %[t5], %[t4]\n\t"
      HSIS_ADX_ROW_M(t0)
      HSIS_ADX_REDUCE_ROW(t0, t1, t2, t3, t4)
      "adcxq %[t0], %[t5]\n\t"
      HSIS_ADX_PRODUCT_ROW(8, t1, t2, t3, t4, t5, t0)
      HSIS_ADX_ROW_M(t1)
      HSIS_ADX_REDUCE_ROW(t1, t2, t3, t4, t5)
      "adcxq %[t1], %[t0]\n\t"
      HSIS_ADX_PRODUCT_ROW(16, t2, t3, t4, t5, t0, t1)
      HSIS_ADX_ROW_M(t2)
      HSIS_ADX_REDUCE_ROW(t2, t3, t4, t5, t0)
      "adcxq %[t2], %[t1]\n\t"
      HSIS_ADX_PRODUCT_ROW(24, t3, t4, t5, t0, t1, t2)
      HSIS_ADX_ROW_M(t3)
      HSIS_ADX_REDUCE_ROW(t3, t4, t5, t0, t1)
      "adcxq %[t3], %[t2]\n\t"
      HSIS_ADX_SUBTRACT_ONCE(t4, t5, t0, t1, t2, t3)
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
        [t4] "=&r"(t4), [t5] "=&r"(t5), [lo] "=&r"(lo), [hi] "=&r"(hi),
        "+d"(d)
      : [a] "r"(a.data()), [b] "r"(b.data()), [n] "r"(n.limb.data())
      : "cc", "memory");
  return {lo, hi, d, t3};
}

/// SOS a^2 * 2^-256 mod n, the same integer as the portable `Sqr`: the
/// six cross products a[i] * a[j] (i < j), doubled, plus the four
/// diagonal squares into x0..x7, then four reduction rows whose
/// multipliers come in pairs (`HSIS_ADX_PAIR_M`). Row i's carry out of
/// x[i + 4] spills into the limb it zeroed, which row i + 1 adds at
/// x[i + 5]; the last spill is the fifth limb. The `a` register holds
/// the address of a until the reduction, then the odd rows' multiplier.
[[gnu::always_inline]] inline Limbs<4> SqrAdx(const Limbs<4>& a,
                                              const U256& n) {
  uint64_t x0, x1, x2, x3, x4, x5, x6, x7, lo, hi, d = a[0];
  const uint64_t* ap = a.data();
  asm(
      // a[0]^2 first, from rdx = a[0]: x0 and, until the doubling, x7.
      "mulxq %%rdx, %[x0], %[x7]\n\t"
      // Cross products into x1..x6 on one add/adc chain.
      "mulxq 8(%[a]), %[x1], %[x2]\n\t"
      "mulxq 16(%[a]), %[lo], %[x3]\n\t"
      "addq %[lo], %[x2]\n\t"
      "mulxq 24(%[a]), %[lo], %[x4]\n\t"
      "adcq %[lo], %[x3]\n\t"
      "adcq $0, %[x4]\n\t"
      "movq 8(%[a]), %%rdx\n\t"
      "mulxq 16(%[a]), %[lo], %[hi]\n\t"
      "addq %[lo], %[x3]\n\t"
      "adcq %[hi], %[x4]\n\t"
      "mulxq 24(%[a]), %[lo], %[x5]\n\t"
      "adcq $0, %[x5]\n\t"
      "addq %[lo], %[x4]\n\t"
      "adcq $0, %[x5]\n\t"
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq 24(%[a]), %[lo], %[x6]\n\t"
      "addq %[lo], %[x5]\n\t"
      "adcq $0, %[x6]\n\t"
      // Double the cross products on CF while adding the diagonal
      // squares on OF; x7 ends as the doubling's top bit plus the high
      // half of a[3]^2.
      "xorl %k[lo], %k[lo]\n\t"
      "adcxq %[x1], %[x1]\n\t"
      "adoxq %[x7], %[x1]\n\t"
      "movq 8(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x2], %[x2]\n\t"
      "adoxq %[lo], %[x2]\n\t"
      "adcxq %[x3], %[x3]\n\t"
      "adoxq %[hi], %[x3]\n\t"
      "movq 16(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x4], %[x4]\n\t"
      "adoxq %[lo], %[x4]\n\t"
      "adcxq %[x5], %[x5]\n\t"
      "adoxq %[hi], %[x5]\n\t"
      "movq 24(%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "adcxq %[x6], %[x6]\n\t"
      "adoxq %[lo], %[x6]\n\t"
      "movl $0, %k[x7]\n\t"
      "adcxq %[x7], %[x7]\n\t"
      "adoxq %[hi], %[x7]\n\t"
      // Reduction rows; after its first add, row i's x[i] is zero.
      HSIS_ADX_PAIR_M(x0, x1, "%[a]")
      HSIS_ADX_REDUCE_ROW(x0, x1, x2, x3, x4)
      "adcxq %[x0], %[x0]\n\t"
      "movq %[a], %%rdx\n\t"
      HSIS_ADX_REDUCE_ROW(x1, x2, x3, x4, x5)
      "adoxq %[x0], %[x5]\n\t"
      "movl $0, %k[x0]\n\t"
      "adcxq %[x0], %[x1]\n\t"
      "adoxq %[x0], %[x1]\n\t"
      HSIS_ADX_PAIR_M(x2, x3, "%[a]")
      HSIS_ADX_REDUCE_ROW(x2, x3, x4, x5, x6)
      "adoxq %[x1], %[x6]\n\t"
      "movl $0, %k[x1]\n\t"
      "adcxq %[x1], %[x2]\n\t"
      "adoxq %[x1], %[x2]\n\t"
      "movq %[a], %%rdx\n\t"
      HSIS_ADX_REDUCE_ROW(x3, x4, x5, x6, x7)
      "adoxq %[x2], %[x7]\n\t"
      "movl $0, %k[x2]\n\t"
      "adcxq %[x2], %[x3]\n\t"
      "adoxq %[x2], %[x3]\n\t"
      HSIS_ADX_SUBTRACT_ONCE(x4, x5, x6, x7, x3, x0)
      : [x0] "=&r"(x0), [x1] "=&r"(x1), [x2] "=&r"(x2), [x3] "=&r"(x3),
        [x4] "=&r"(x4), [x5] "=&r"(x5), [x6] "=&r"(x6), [x7] "=&r"(x7),
        [lo] "=&r"(lo), [hi] "=&r"(hi), "+d"(d), [a] "+r"(ap)
      : [n] "r"(n.limb.data())
      : "cc", "memory");
  return {lo, hi, d, x0};
}

#undef HSIS_ADX_SUBTRACT_ONCE
#undef HSIS_ADX_PRODUCT_ROW
#undef HSIS_ADX_REDUCE_ROW
#undef HSIS_ADX_PAIR_M
#undef HSIS_ADX_ROW_M
#undef HSIS_R

/// Whether 4-limb products run on the ADX lane: CPUID leaf 7's BMI2
/// and ADX bits, read once per process.
bool AdxLaneSupported() {
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
           (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
  }();
  return supported;
}

#endif  // HSIS_MONT_ADX

}  // namespace

/// The Montgomery kernels at a fixed width of N limbs (R = 2^(64N)),
/// reading the modulus and constants straight from the context. Every
/// loop runs a compile-time N times and `#pragma GCC unroll` flattens
/// it completely, so the t[] accumulator lives in registers: without it
/// GCC at -O2 keeps the loops rolled and every limb product goes
/// through memory. N = 4 is the full 256-bit kernel; with `kAdx` its
/// `Mul` and `Sqr` run the BMI2 + ADX asm above (same integers), and
/// everything else is shared.
template <size_t N, bool kAdx = false>
class MontKernel {
 public:
  static_assert(!kAdx || N == 4, "the ADX lane is the 4-limb kernel");
  // The ADX asm reads n0inv_ and n1inv_ at fixed offsets from n_.
  static_assert(offsetof(MontgomeryContext, n_) == 0 &&
                offsetof(MontgomeryContext, n0inv_) == 32 &&
                offsetof(MontgomeryContext, n1inv_) == 40);
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

  [[gnu::always_inline]] Limbs<N> Mul(const Limbs<N>& a,
                                       const Limbs<N>& b) const {
#ifdef HSIS_MONT_ADX
    if constexpr (kAdx) return MulAdx(a, b, ctx_.n_);
#endif
    return Cios<N>(a.data(), b);
  }

  [[gnu::always_inline]] Limbs<N> Sqr(const Limbs<N>& a) const {
#ifdef HSIS_MONT_ADX
    if constexpr (kAdx) return SqrAdx(a, ctx_.n_);
#endif
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
  /// 2^256 mod n gives a * 2^256 * 2^-256. At four limbs that is `Mul`.
  Limbs<N> Reduce(const U256& a) const {
    if constexpr (N == 4) {
      return Mul(a.limb, Narrow(ctx_.r256_));
    } else {
      return Cios<4>(a.limb.data(), Narrow(ctx_.r256_));
    }
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
#ifdef HSIS_MONT_ADX
      if (AdxLaneSupported()) return body(MontKernel<4, true>(ctx));
#endif
      return body(MontKernel<4>(ctx));
  }
}

/// `MontgomeryContext::ModExp`'s right-to-left square-and-multiply
/// ladder on kernel `k`.
template <typename Kernel>
U256 PlainLadder(const Kernel& k, const U256& base, const U256& exp) {
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
}

}  // namespace

/// `FixedExponentContext::ModExp`'s window walk, one template over the
/// kernel type; a friend of the context, so the 4-limb lane table can
/// instantiate it on each kernel.
class FixedExponentLadder {
 public:
  template <typename Kernel>
  static U256 Run(const FixedExponentContext& fx, const Kernel& k,
                  const U256& base) {
    using Value = typename Kernel::Value;
    // Same pre-reduction and exp==0/1 short-circuits as the naive ladder.
    const Value b = k.Reduced(base);
    if (fx.top_digit_ == 0) return U256(1);
    if (fx.top_digit_ == 1 && fx.steps_.empty()) return Widen(b);

    // Odd powers in the Montgomery domain: table[i] = b^(2i + 1), built
    // only up to the largest digit the schedule uses.
    Value table[size_t{1} << (FixedExponentContext::kMaxWindowBits - 1)];
    table[0] = k.ToMont(b);
    if (fx.table_size_ > 1) {
      const Value b2 = k.Sqr(table[0]);
      for (size_t i = 1; i < fx.table_size_; ++i) {
        table[i] = k.Mul(table[i - 1], b2);
      }
    }

    // Left-to-right walk: the leading digit seeds the accumulator, every
    // later window costs its squarings plus one table product (the
    // trailing zero run, digit 0, only squarings).
    Value acc = table[fx.top_digit_ >> 1];
    for (const FixedExponentContext::Step& step : fx.steps_) {
      for (unsigned s = 0; s < step.squarings; ++s) acc = k.Sqr(acc);
      if (step.digit != 0) acc = k.Mul(acc, table[step.digit >> 1]);
    }
    return Widen(k.FromMont(acc));
  }

  /// `Run` on a kernel of type `Kernel` over the context's modulus.
  template <typename Kernel>
  static U256 RunOn(const FixedExponentContext& fx, const U256& base) {
    return Run(fx, Kernel(fx.ctx_), base);
  }
};

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
  return AtWidth(*this,
                 [&](const auto& k) { return PlainLadder(k, base, exp); });
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
      top_digit_(0) {
  // Scan from the most significant bit down. A set bit at i opens a
  // window that ends at the lowest set bit j >= i - w + 1, so the digit
  // (bits i..j) is odd; zero bits between windows only add squarings.
  // An exponent of 0 leaves top_digit_ 0 and no steps.
  const size_t w = static_cast<size_t>(window_bits_);
  size_t zeros = 0;  // squarings owed since the last window
  for (size_t i = exp_.BitLength(); i > 0;) {
    if (!exp_.Bit(i - 1)) {
      ++zeros;
      --i;
      continue;
    }
    size_t j = i > w ? i - w : 0;
    while (!exp_.Bit(j)) ++j;
    uint8_t digit = 0;
    for (size_t b = i; b-- > j;) {
      digit = static_cast<uint8_t>((digit << 1) | (exp_.Bit(b) ? 1 : 0));
    }
    if (top_digit_ == 0) {
      top_digit_ = digit;
    } else {
      steps_.push_back({static_cast<uint16_t>(zeros + (i - j)), digit});
    }
    table_size_ = std::max(table_size_, static_cast<size_t>(digit / 2 + 1));
    zeros = 0;
    i = j;
  }
  if (zeros > 0) steps_.push_back({static_cast<uint16_t>(zeros), 0});
}

U256 FixedExponentContext::ModExp(const U256& base) const {
  return AtWidth(ctx_, [&](const auto& k) {
    return FixedExponentLadder::Run(*this, k, base);
  });
}

namespace internal {
namespace {

template <typename Kernel>
constexpr MontLane4 MakeLane(const char* name) {
  return {
      name,
      [](const MontgomeryContext& ctx, const U256& a, const U256& b,
         U256* out) { out->limb = Kernel(ctx).Mul(a.limb, b.limb); },
      [](const MontgomeryContext& ctx, const U256& a, U256* out) {
        out->limb = Kernel(ctx).Sqr(a.limb);
      },
      [](const MontgomeryContext& ctx, const U256& base, const U256& exp) {
        return PlainLadder(Kernel(ctx), base, exp);
      },
      &FixedExponentLadder::RunOn<Kernel>,
  };
}

constexpr MontLane4 kPortableLane = MakeLane<MontKernel<4>>("portable");
#ifdef HSIS_MONT_ADX
constexpr MontLane4 kAdxLane = MakeLane<MontKernel<4, true>>("adx");
#endif

}  // namespace

const MontLane4& PortableLane4() { return kPortableLane; }

const MontLane4* AdxLane4() {
#ifdef HSIS_MONT_ADX
  if (AdxLaneSupported()) return &kAdxLane;
#endif
  return nullptr;
}

const MontLane4& ActiveLane4() {
  const MontLane4* adx = AdxLane4();
  return adx != nullptr ? *adx : kPortableLane;
}

}  // namespace internal

}  // namespace hsis::crypto
