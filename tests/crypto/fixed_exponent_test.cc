// Differential suite pinning `FixedExponentContext` (the sliding-window
// Montgomery ladder behind `CommutativeCipher`) bit-identical to the
// naive `MontgomeryContext::ModExp` ladder — random exponents,
// adversarial exponent shapes (0, 1, 2^k, all-ones, q-1, n-2),
// window-boundary bit patterns, every window width, and adversarial
// bases including unreduced ones — plus wire-sized bases (high limbs
// set) on narrow moduli, checked against a `ModMulSlow` oracle because
// both ladders share the width-matched kernel there.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/group.h"
#include "crypto/modmath.h"
#include "crypto/parallel_modexp.h"
#include "crypto/prime.h"

namespace hsis::crypto {
namespace {

U256 RandBelow(Rng& rng, const U256& m) {
  return DivMod(U256::FromBytesBE(rng.RandomBytes(32)), m).remainder;
}

/// base^exp mod n by left-to-right square-and-multiply on ModMulSlow,
/// which shares no code with the Montgomery kernels.
U256 SlowExp(const U256& base, const U256& exp, const U256& n) {
  U256 result = DivMod(U256(1), n).remainder;
  const U256 b = DivMod(base, n).remainder;
  for (size_t i = exp.BitLength(); i-- > 0;) {
    result = ModMulSlow(result, result, n);
    if (exp.Bit(i)) result = ModMulSlow(result, b, n);
  }
  return result;
}

std::vector<U256> TestModuli() {
  return {
      U256(101),
      U256(0x9390aa633eae9f7fULL),
      DefaultSafePrime(),
      DefaultSubgroupOrder(),
  };
}

/// Checks windowed == naive for `exp` over a spread of bases under
/// every explicit window width plus the auto-selected one.
void ExpectWindowedMatchesLadder(const MontgomeryContext& ctx,
                                 const U256& exp) {
  Rng rng(exp.BitLength() * 1000003 + 17);
  std::vector<U256> bases = {U256(0), U256(1), U256(2),
                             ctx.modulus() - U256(1)};
  for (int i = 0; i < 8; ++i) bases.push_back(RandBelow(rng, ctx.modulus()));
  for (int w = 0; w <= FixedExponentContext::kMaxWindowBits; ++w) {
    Result<FixedExponentContext> windowed =
        FixedExponentContext::Create(ctx, exp, w);
    ASSERT_TRUE(windowed.ok()) << windowed.status().message();
    for (const U256& base : bases) {
      EXPECT_EQ(windowed->ModExp(base), ctx.ModExp(base, exp))
          << "modulus " << ctx.modulus().ToHex() << " exp " << exp.ToHex()
          << " base " << base.ToHex() << " w " << w;
    }
  }
}

TEST(FixedExponentTest, RandomExponentDifferential) {
  Rng rng(2024);
  for (const U256& m : TestModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int i = 0; i < 6; ++i) {
      ExpectWindowedMatchesLadder(*ctx, RandBelow(rng, m));
    }
  }
}

TEST(FixedExponentTest, AdversarialExponentShapes) {
  const U256 n = DefaultSafePrime();
  const U256 q = DefaultSubgroupOrder();
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
  ASSERT_TRUE(ctx.ok());

  std::vector<U256> exps = {U256(0), U256(1), U256(2), q - U256(1),
                            n - U256(2)};
  // Single-bit exponents 2^k: one nonzero window digit, everything else
  // pure squarings.
  for (size_t k : {size_t{1}, size_t{5}, size_t{63}, size_t{64}, size_t{255}}) {
    exps.push_back(U256(1) << k);
  }
  // All-ones runs: every window digit is the maximal value, so the full
  // power table is exercised.
  for (size_t bits : {size_t{4}, size_t{17}, size_t{64}, size_t{255}}) {
    exps.push_back((U256(1) << bits) - U256(1));
  }
  for (const U256& e : exps) ExpectWindowedMatchesLadder(*ctx, e);
}

TEST(FixedExponentTest, WindowBoundaryBitPatterns) {
  // Exponents whose bit lengths straddle window boundaries: the top
  // (ragged) digit takes every size from 1 bit up to a full window, and
  // a zero just below the boundary forces a skipped-multiply window.
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(DefaultSafePrime());
  ASSERT_TRUE(ctx.ok());
  for (size_t bits = 1; bits <= 26; ++bits) {
    const U256 top = U256(1) << (bits - 1);
    ExpectWindowedMatchesLadder(*ctx, top);            // 100...0
    ExpectWindowedMatchesLadder(*ctx, top + U256(1));  // 100...01
    if (bits >= 2) {
      // 101...1 with a zero at the second-highest position.
      ExpectWindowedMatchesLadder(*ctx, top + (top >> 2) + U256(1));
    }
  }
}

TEST(FixedExponentTest, UnreducedBaseMatchesPreReduction) {
  // base >= n must behave exactly like base mod n, for both ladders.
  const U256 m(0x9390aa633eae9f7fULL);
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  Rng rng(31337);
  const U256 exp = RandBelow(rng, m);
  Result<FixedExponentContext> windowed =
      FixedExponentContext::Create(*ctx, exp);
  ASSERT_TRUE(windowed.ok());
  for (int i = 0; i < 16; ++i) {
    const U256 reduced = RandBelow(rng, m);
    const U256 lifted = reduced + m + m;  // same residue, >= n
    EXPECT_EQ(windowed->ModExp(lifted), windowed->ModExp(reduced));
    EXPECT_EQ(ctx->ModExp(lifted, exp), ctx->ModExp(reduced, exp));
    EXPECT_EQ(windowed->ModExp(lifted), ctx->ModExp(reduced, exp));
  }
}

TEST(FixedExponentTest, WireSizedBasesOnNarrowModuli) {
  // A peer can send any 256-bit value. On a one- or two-limb modulus
  // the kernel only reads the low limbs, so every entry point must
  // reduce such a base first, never truncate it.
  const U256 p128 =
      U256::FromHex("ba7c68ab3eae6a8f5c13962c8874b533").value();
  for (const U256& p : {SmallSafePrime(), p128}) {
    Result<PrimeGroup> group = PrimeGroup::Create(p, /*check_primality=*/true);
    ASSERT_TRUE(group.ok()) << p.ToHex();
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(p);
    ASSERT_TRUE(ctx.ok());
    ASSERT_LE(ctx->limbs(), 2u);
    Rng rng(p.limb[0]);
    const U256 key = group->RandomExponent(rng);
    Result<FixedExponentContext> windowed =
        FixedExponentContext::Create(*ctx, key);
    ASSERT_TRUE(windowed.ok());
    Result<CommutativeCipher> cipher =
        CommutativeCipher::CreateWithKey(*group, key);
    ASSERT_TRUE(cipher.ok());

    std::vector<U256> bases = {U256(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
    for (int i = 0; i < 8; ++i) {
      const U256 r = RandBelow(rng, p);
      bases.push_back((U256(1) << 192) + r);
      // r + k * p with k just below 2^(255 - bits(p)) (k ~ 2^190 on
      // the 64-bit group): high limbs set, residue r, no wraparound.
      const size_t k_bits = 255 - p.BitLength();
      const U256 k = (U256::FromBytesBE(rng.RandomBytes(32)) >>
                      (256 - k_bits)) |
                     (U256(1) << (k_bits - 1));
      const U256 lifted = r + k * p;
      ASSERT_EQ(DivMod(lifted, p).remainder, r);
      bases.push_back(lifted);
    }
    for (const U256& base : bases) {
      const U256 want = SlowExp(base, key, p);
      EXPECT_EQ(windowed->ModExp(base), want)
          << "p " << p.ToHex() << " base " << base.ToHex();
      EXPECT_EQ(ctx->ModExp(base, key), want)
          << "p " << p.ToHex() << " base " << base.ToHex();
      for (const U256& other : bases) {
        EXPECT_EQ(ctx->ModMul(base, other), ModMulSlow(base, other, p))
            << "p " << p.ToHex() << " a " << base.ToHex() << " b "
            << other.ToHex();
      }
    }
    for (int threads : {1, 4}) {
      std::vector<U256> out(bases.size());
      EncryptBatch(*cipher, bases, out, threads);
      for (size_t i = 0; i < bases.size(); ++i) {
        EXPECT_EQ(out[i], SlowExp(bases[i], key, p))
            << "p " << p.ToHex() << " threads " << threads << " base "
            << bases[i].ToHex();
      }
    }
  }
}

TEST(FixedExponentTest, MontSqrMatchesMontMul) {
  Rng rng(4242);
  for (const U256& m : TestModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> values = {U256(0), U256(1), m - U256(1)};
    for (int i = 0; i < 50; ++i) values.push_back(RandBelow(rng, m));
    for (const U256& a : values) {
      EXPECT_EQ(ctx->MontSqr(a), ctx->MontMul(a, a))
          << "modulus " << m.ToHex() << " a " << a.ToHex();
    }
  }
}

TEST(FixedExponentTest, TrivialExponentsShortCircuit) {
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(U256(1000003));
  ASSERT_TRUE(ctx.ok());
  Result<FixedExponentContext> zero =
      FixedExponentContext::Create(*ctx, U256(0));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->ModExp(U256(5)), U256(1));
  EXPECT_EQ(zero->ModExp(U256(0)), U256(1));  // 0^0 == 1, like the ladder
  Result<FixedExponentContext> one = FixedExponentContext::Create(*ctx, U256(1));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ModExp(U256(7)), U256(7));
  EXPECT_EQ(one->ModExp(U256(1000003 + 7)), U256(7));  // pre-reduced
}

TEST(FixedExponentTest, CreateValidatesWindowBits) {
  Result<MontgomeryContext> ctx = MontgomeryContext::Create(U256(101));
  ASSERT_TRUE(ctx.ok());
  EXPECT_FALSE(FixedExponentContext::Create(*ctx, U256(5), 7).ok());
  EXPECT_FALSE(FixedExponentContext::Create(*ctx, U256(5), -1).ok());
  Result<FixedExponentContext> auto_w =
      FixedExponentContext::Create(*ctx, U256(5));
  ASSERT_TRUE(auto_w.ok());
  EXPECT_GE(auto_w->window_bits(), 1);
  EXPECT_LE(auto_w->window_bits(), FixedExponentContext::kMaxWindowBits);
}

TEST(FixedExponentTest, GroupFixedExpMatchesGroupExp) {
  // The exact path `CommutativeCipher` takes: per-key schedule over the
  // production group, compared against `PrimeGroup::Exp` on hashed
  // elements — the same differential the protocol suites inherit.
  const PrimeGroup& group = PrimeGroup::Default();
  Rng rng(777);
  for (int trial = 0; trial < 3; ++trial) {
    const U256 key = group.RandomExponent(rng);
    Result<FixedExponentContext> windowed = group.FixedExp(key);
    ASSERT_TRUE(windowed.ok());
    EXPECT_EQ(windowed->exponent(), key);
    for (int i = 0; i < 8; ++i) {
      const U256 x = group.HashToElement(
          ToBytes("fixed-exp-" + std::to_string(trial * 100 + i)));
      EXPECT_EQ(windowed->ModExp(x), group.Exp(x, key));
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
