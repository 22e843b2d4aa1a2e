// Differential suite for the 4-limb Montgomery lanes
// (crypto/montgomery_lanes.h): the portable C++ kernel and the BMI2 +
// ADX asm kernel, each checked on its own against
//
//   * a full-width REDC reference: t = (a*b + m*n) / 2^256 with
//     m = -a*b*n^-1 mod 2^256, built from U256/U512 arithmetic that
//     shares no code with either kernel. It also says whether t took
//     the final subtraction (t >= n) and whether it carried into a
//     fifth limb (t >= 2^256, possible only when n > 2^255);
//   * `ModMulSlow`: result * 2^256 == a * b (mod n);
//   * the portable kernel, limb for limb.
//
// 10^5 seeded random pairs run on odd 193-, 224-, 255- and 256-bit
// moduli and on the default prime (each pair's product also against
// `ModMulSlow`, whose bit-serial division dominates the suite's time),
// plus the edge operands 0, 1, n-1 and n-2 and fully aliased calls.
// Both ladders on each kernel are checked against a `ModMulSlow`
// ladder. The ADX tests skip on CPUs or builds without BMI2 and ADX.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/modmath.h"
#include "crypto/montgomery_lanes.h"
#include "crypto/prime.h"

namespace hsis::crypto {
namespace {

using internal::MontLane4;

constexpr char kNoAdx[] =
    "this CPU or build has no BMI2 + ADX, so only the portable kernel runs";

constexpr U256 kAllOnes(~0ULL, ~0ULL, ~0ULL, ~0ULL);

/// A random odd modulus of exactly `bits` bits.
U256 RandomOddModulus(Rng& rng, size_t bits) {
  U256 n = U256::FromBytesBE(rng.RandomBytes(32)) >> (256 - bits);
  return n | (U256(1) << (bits - 1)) | U256(1);
}

/// The moduli of the random-pair suite: odd 193-, 224-, 255- and
/// 256-bit moduli (the narrowest and widest 4-limb widths, one in
/// between, and both sides of 2^255) and the default safe prime.
std::vector<U256> LaneModuli() {
  Rng rng(0x1A4E);
  std::vector<U256> moduli;
  for (size_t bits : {size_t{193}, size_t{224}, size_t{255}, size_t{256}}) {
    moduli.push_back(RandomOddModulus(rng, bits));
  }
  moduli.push_back(DefaultSafePrime());
  return moduli;
}

/// `LaneModuli` plus the extremes of the 4-limb width: 2^256 - 1 (the
/// largest fifth-limb carries), 2^255 + 1, 2^192 + 1 and 2^193 - 1, and
/// the subgroup order q.
std::vector<U256> EdgeModuli() {
  std::vector<U256> moduli = LaneModuli();
  moduli.push_back(kAllOnes);
  moduli.push_back((U256(1) << 255) | U256(1));
  moduli.push_back((U256(1) << 192) | U256(1));
  moduli.push_back((U256(1) << 193) - U256(1));
  moduli.push_back(DefaultSubgroupOrder());
  return moduli;
}

/// A random value below n. One draw in four builds each limb from
/// {0, 2^64 - 1, random}, so long carry and borrow chains come up far
/// more often than under uniform draws.
U256 RandomBelow(Rng& rng, const U256& n) {
  const size_t shift = 256 - n.BitLength();
  const bool patterned = rng.UniformUint64(4) == 0;
  for (;;) {
    U256 x;
    for (uint64_t& limb : x.limb) {
      const uint64_t pick = patterned ? rng.UniformUint64(3) : 2;
      limb = pick == 0 ? 0 : pick == 1 ? ~0ULL : rng.NextUint64();
    }
    x = x >> shift;
    if (x < n) return x;
  }
}

/// -n^-1 mod 2^256 by Newton–Hensel lifting in wrapping U256
/// arithmetic: n * n == 1 (mod 8) gives three correct bits, and each
/// step doubles them.
U256 NegInverseModR(const U256& n) {
  U256 inv = n;
  for (int i = 0; i < 7; ++i) inv = inv * (U256(2) - n * inv);
  return U256() - inv;
}

struct Redc {
  U256 value;        // a * b * 2^-256 mod n
  bool subtracted;   // t >= n: the final subtraction ran
  bool fifth_limb;   // t >= 2^256: t needed a fifth limb
};

/// Full-width Montgomery reduction of a * b for a < 2^256 and b < n, so
/// a * b < 2^256 * n and t = (a*b + m*n) / 2^256 < 2n.
Redc ReferenceRedc(const U256& a, const U256& b, const U256& n,
                   const U256& neg_inv) {
  const U512 ab = U256::MulFull(a, b);
  const U256 m = ab.Low() * neg_inv;
  const U512 sum = ab + U256::MulFull(m, n);  // wraps past 2^512
  const bool carry = sum < ab;
  EXPECT_TRUE(sum.Low().IsZero()) << "m does not cancel the low half";
  const U256 t = sum.High();
  Redc r;
  r.fifth_limb = carry;
  r.subtracted = carry || t >= n;
  r.value = r.subtracted ? t - n : t;
  return r;
}

/// The portable lane, then the ADX lane when this CPU and build have it.
std::vector<const MontLane4*> Lanes() {
  std::vector<const MontLane4*> lanes = {&internal::PortableLane4()};
  if (const MontLane4* adx = internal::AdxLane4()) lanes.push_back(adx);
  return lanes;
}

MontgomeryContext Context(const U256& n) {
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
  EXPECT_TRUE(ctx.ok()) << n.ToHex();
  EXPECT_EQ(ctx->limbs(), 4u) << n.ToHex();
  return *ctx;
}

/// How often the reference took each rare branch over one modulus.
struct BranchCounts {
  size_t subtracted = 0;
  size_t fifth_limb = 0;
};

/// A failure's context; only built when an expectation fails.
std::string Where(const MontLane4& lane, const char* op, const U256& n,
                  const U256& a, const U256& b) {
  return std::string(lane.name) + " " + op + " n " + n.ToHex() + " a " +
         a.ToHex() + " b " + b.ToHex();
}

/// lane.mul(a, b) against the reference, the portable kernel and, when
/// `r` (2^256 mod n) is given, `ModMulSlow`; false on a mismatch.
bool CheckMul(const MontLane4& lane, const MontgomeryContext& ctx,
              const U256& neg_inv, const U256* r, const U256& a,
              const U256& b, BranchCounts* counts) {
  const U256& n = ctx.modulus();
  U256 got, portable;
  lane.mul(ctx, a, b, &got);
  internal::PortableLane4().mul(ctx, a, b, &portable);
  const Redc want = ReferenceRedc(a, b, n, neg_inv);
  counts->subtracted += want.subtracted;
  counts->fifth_limb += want.fifth_limb;
  EXPECT_EQ(got, want.value) << Where(lane, "mul", n, a, b);
  EXPECT_EQ(got, portable) << Where(lane, "mul", n, a, b);
  if (r != nullptr) {
    EXPECT_EQ(ModMulSlow(got, *r, n), ModMulSlow(a, b, n))
        << Where(lane, "mul", n, a, b);
  }
  return got == want.value && got == portable;
}

/// lane.sqr(a) against the reference, the portable kernel, lane.mul(a,
/// a) and, when `r` is given, `ModMulSlow`.
bool CheckSqr(const MontLane4& lane, const MontgomeryContext& ctx,
              const U256& neg_inv, const U256* r, const U256& a,
              BranchCounts* counts) {
  const U256& n = ctx.modulus();
  U256 got, portable, as_mul;
  lane.sqr(ctx, a, &got);
  internal::PortableLane4().sqr(ctx, a, &portable);
  lane.mul(ctx, a, a, &as_mul);
  const Redc want = ReferenceRedc(a, a, n, neg_inv);
  counts->subtracted += want.subtracted;
  counts->fifth_limb += want.fifth_limb;
  EXPECT_EQ(got, want.value) << Where(lane, "sqr", n, a, a);
  EXPECT_EQ(got, portable) << Where(lane, "sqr", n, a, a);
  EXPECT_EQ(got, as_mul) << Where(lane, "sqr", n, a, a);
  if (r != nullptr) {
    EXPECT_EQ(ModMulSlow(got, *r, n), ModMulSlow(a, a, n))
        << Where(lane, "sqr", n, a, a);
  }
  return got == want.value && got == portable && got == as_mul;
}

/// 10^5 random pairs split over `LaneModuli`. Each pair runs three
/// products against the reference and the portable kernel: mul(a, b)
/// (also against `ModMulSlow`) and sqr(a) with a, b < n, and mul(w, b)
/// with w any 256-bit value (the `Reduce` operand shape). Moduli above
/// 2^255 must have produced fifth-limb carries and every modulus final
/// subtractions, or the pairs missed the branches they exist for.
void CheckRandomPairs(const MontLane4& lane) {
  constexpr size_t kPairs = 100000;
  const std::vector<U256> moduli = LaneModuli();
  Rng rng(0xAD7);
  for (const U256& n : moduli) {
    const MontgomeryContext ctx = Context(n);
    const U256 neg_inv = NegInverseModR(n);
    const U256 r = (U512(1) << 256).Mod(n);
    BranchCounts counts;
    for (size_t i = 0; i < kPairs / moduli.size(); ++i) {
      const U256 a = RandomBelow(rng, n);
      const U256 b = RandomBelow(rng, n);
      const U256 wide = U256::FromBytesBE(rng.RandomBytes(32));
      ASSERT_TRUE(CheckMul(lane, ctx, neg_inv, &r, a, b, &counts));
      ASSERT_TRUE(CheckSqr(lane, ctx, neg_inv, nullptr, a, &counts));
      ASSERT_TRUE(CheckMul(lane, ctx, neg_inv, nullptr, wide, b, &counts));
    }
    EXPECT_GT(counts.subtracted, 0u) << lane.name << " n " << n.ToHex();
    if (n > (U256(1) << 255)) {
      EXPECT_GT(counts.fifth_limb, 0u) << lane.name << " n " << n.ToHex();
    } else {
      EXPECT_EQ(counts.fifth_limb, 0u) << lane.name << " n " << n.ToHex();
    }
  }
}

/// Every pair from {0, 1, 2, n-2, n-1, 2^256 mod n, random} on
/// `EdgeModuli`, plus unreduced left operands {n, 2^256 - 1} against
/// each of them.
void CheckEdgeOperands(const MontLane4& lane) {
  Rng rng(0xED6E);
  for (const U256& n : EdgeModuli()) {
    const MontgomeryContext ctx = Context(n);
    const U256 neg_inv = NegInverseModR(n);
    const U256 r = (U512(1) << 256).Mod(n);
    const std::vector<U256> ops = {U256(0),         U256(1),
                                   U256(2),         n - U256(2),
                                   n - U256(1),     r,
                                   RandomBelow(rng, n)};
    BranchCounts counts;
    for (const U256& a : ops) {
      for (const U256& b : ops) {
        CheckMul(lane, ctx, neg_inv, &r, a, b, &counts);
      }
      CheckSqr(lane, ctx, neg_inv, &r, a, &counts);
      CheckMul(lane, ctx, neg_inv, &r, n, a, &counts);
      CheckMul(lane, ctx, neg_inv, &r, kAllOnes, a, &counts);
    }
    EXPECT_GT(counts.subtracted, 0u) << lane.name << " n " << n.ToHex();
  }
}

/// mul(x, x) -> x and sqr(x) -> x through one object, against the same
/// calls on copies.
void CheckAliasing(const MontLane4& lane) {
  Rng rng(0xA11A5);
  for (const U256& n : EdgeModuli()) {
    const MontgomeryContext ctx = Context(n);
    for (U256 x : {U256(0), U256(1), n - U256(2), n - U256(1),
                   RandomBelow(rng, n), RandomBelow(rng, n)}) {
      const U256 copy = x;
      U256 mul_want, sqr_want;
      lane.mul(ctx, copy, copy, &mul_want);
      lane.sqr(ctx, copy, &sqr_want);
      U256 y = x;
      lane.mul(ctx, y, y, &y);
      EXPECT_EQ(y, mul_want) << lane.name << " n " << n.ToHex();
      lane.sqr(ctx, x, &x);
      EXPECT_EQ(x, sqr_want) << lane.name << " n " << n.ToHex();
      // One operand aliased with the output at a time.
      U256 a = copy, b = RandomBelow(rng, n), want;
      lane.mul(ctx, a, b, &want);
      U256 a_out = a;
      lane.mul(ctx, a_out, b, &a_out);
      EXPECT_EQ(a_out, want) << lane.name << " n " << n.ToHex();
      U256 b_out = b;
      lane.mul(ctx, a, b_out, &b_out);
      EXPECT_EQ(b_out, want) << lane.name << " n " << n.ToHex();
    }
  }
}

/// base^exp mod n by left-to-right square-and-multiply on ModMulSlow.
U256 SlowExp(const U256& base, const U256& exp, const U256& n) {
  U256 result = DivMod(U256(1), n).remainder;
  const U256 b = DivMod(base, n).remainder;
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = ModMulSlow(result, result, n);
    if (exp.Bit(i)) result = ModMulSlow(result, b, n);
  }
  return result;
}

/// Both ladders on `lane` against `SlowExp`: exponents {0, 1, 2, 3,
/// n-2, random, 2^256 - 1} at every window width, bases {0, 1, n-1} and
/// unreduced {n, 2^256 - 1} plus random ones.
void CheckLadders(const MontLane4& lane) {
  Rng rng(0x1ADD);
  for (const U256& n : EdgeModuli()) {
    const MontgomeryContext ctx = Context(n);
    const std::vector<U256> exps = {
        U256(0),     U256(1), U256(2), U256(3), n - U256(2),
        U256::FromBytesBE(rng.RandomBytes(32)), kAllOnes};
    const std::vector<U256> bases = {U256(0),     U256(1),
                                     n - U256(1), n,
                                     kAllOnes,    RandomBelow(rng, n),
                                     U256::FromBytesBE(rng.RandomBytes(32))};
    for (const U256& e : exps) {
      for (const U256& base : bases) {
        const U256 want = SlowExp(base, e, n);
        const std::string where = std::string(lane.name) + " n " +
                                  n.ToHex() + " e " + e.ToHex() + " base " +
                                  base.ToHex();
        EXPECT_EQ(lane.mod_exp(ctx, base, e), want) << where;
        for (int w = 0; w <= FixedExponentContext::kMaxWindowBits; ++w) {
          Result<FixedExponentContext> fx =
              FixedExponentContext::Create(ctx, e, w);
          ASSERT_TRUE(fx.ok()) << where;
          EXPECT_EQ(lane.fixed_mod_exp(*fx, base), want)
              << where << " w " << w;
        }
      }
    }
  }
}

TEST(MontgomeryLanesTest, ActiveLaneIsAdxExactlyWhenAvailable) {
  EXPECT_STREQ(internal::PortableLane4().name, "portable");
  const MontLane4* adx = internal::AdxLane4();
  if (adx != nullptr) {
    EXPECT_STREQ(adx->name, "adx");
  }
  EXPECT_EQ(&internal::ActiveLane4(),
            adx != nullptr ? adx : &internal::PortableLane4());
}

// The contexts' entry points run the active lane: same integers as its
// table entries on the default prime.
TEST(MontgomeryLanesTest, ContextsRunTheActiveLane) {
  const MontLane4& lane = internal::ActiveLane4();
  const MontgomeryContext ctx = Context(DefaultSafePrime());
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    const U256 a = RandomBelow(rng, ctx.modulus());
    const U256 b = RandomBelow(rng, ctx.modulus());
    const U256 e = U256::FromBytesBE(rng.RandomBytes(32));
    U256 mul, sqr;
    lane.mul(ctx, a, b, &mul);
    lane.sqr(ctx, a, &sqr);
    EXPECT_EQ(ctx.MontMul(a, b), mul);
    EXPECT_EQ(ctx.MontSqr(a), sqr);
    EXPECT_EQ(ctx.ModExp(a, e), lane.mod_exp(ctx, a, e));
    Result<FixedExponentContext> fx = FixedExponentContext::Create(ctx, e);
    ASSERT_TRUE(fx.ok());
    EXPECT_EQ(fx->ModExp(a), lane.fixed_mod_exp(*fx, a));
  }
}

TEST(MontgomeryLanesTest, PortableMatchesReferenceOnRandomPairs) {
  CheckRandomPairs(internal::PortableLane4());
}

TEST(MontgomeryLanesTest, AdxMatchesPortableAndReferenceOnRandomPairs) {
  const MontLane4* adx = internal::AdxLane4();
  if (adx == nullptr) GTEST_SKIP() << kNoAdx;
  CheckRandomPairs(*adx);
}

TEST(MontgomeryLanesTest, EveryLaneMatchesReferenceOnEdgeOperands) {
  for (const MontLane4* lane : Lanes()) CheckEdgeOperands(*lane);
}

TEST(MontgomeryLanesTest, EveryLaneAllowsOutputToAliasOperands) {
  for (const MontLane4* lane : Lanes()) CheckAliasing(*lane);
}

TEST(MontgomeryLanesTest, PortableLaddersMatchSlowLadder) {
  CheckLadders(internal::PortableLane4());
}

TEST(MontgomeryLanesTest, AdxLaddersMatchSlowLadder) {
  const MontLane4* adx = internal::AdxLane4();
  if (adx == nullptr) GTEST_SKIP() << kNoAdx;
  CheckLadders(*adx);
}

}  // namespace
}  // namespace hsis::crypto
