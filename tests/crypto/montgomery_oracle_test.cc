// Independent-oracle suite for the width-matched Montgomery kernels.
//
// The fixed-exponent differential suite compares two ladders that both
// run on `MontMul`/`MontSqr`, so a kernel bug shifts both sides alike.
// Here every kernel output is checked against `ModMulSlow` (full 512-bit
// product plus long division), which shares no code with the kernel:
//
//   MontMul(a, b) * R  == a * b       (mod n), result < n,
//                                     R = 2^(64 * limbs())
//   MontSqr(a)         == MontMul(a, a)
//   ToMont(a)          == a * R       (mod n)
//   FromMont(a) * R    == a           (mod n)
//   ModMul(a, b)       == a * b       (mod n), any 256-bit a, b
//   Reduce(a)          == a mod n,             any 256-bit a
//   ModExp / FixedExponentContext::ModExp == a ModMulSlow ladder
//
// over odd moduli on both sides of every limb boundary (3, 63, 64, 65,
// 127, 128, 129, 191, 192, 193 and 256 bits), so each width-N kernel
// (N = 1..4) runs at its narrowest and widest modulus, with operands
// {0, 1, n-1, random}.

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/modmath.h"
#include "crypto/prime.h"

namespace hsis::crypto {
namespace {

U256 RandBelow(Rng& rng, const U256& m) {
  return DivMod(U256::FromBytesBE(rng.RandomBytes(32)), m).remainder;
}

/// A random odd modulus of exactly `bits` bits.
U256 RandomOddModulus(Rng& rng, size_t bits) {
  U256 n = U256::FromBytesBE(rng.RandomBytes(32)) >> (256 - bits);
  n = n | (U256(1) << (bits - 1)) | U256(1);
  return n;
}

std::vector<U256> OracleModuli() {
  Rng rng(8439);
  std::vector<U256> moduli;
  for (size_t bits : {size_t{3}, size_t{63}, size_t{64}, size_t{65},
                      size_t{127}, size_t{128}, size_t{129}, size_t{191},
                      size_t{192}, size_t{193}, size_t{256}}) {
    for (int i = 0; i < 3; ++i) moduli.push_back(RandomOddModulus(rng, bits));
    // Extremes of the width: all ones, and just the top and low bits.
    moduli.push_back((bits == 256 ? U256() : U256(1) << bits) - U256(1));
    moduli.push_back((U256(1) << (bits - 1)) | U256(1));
  }
  // Bit 63 set: the one-limb kernel's carry-out case.
  moduli.push_back(SmallSafePrime());
  moduli.push_back(DefaultSafePrime());
  moduli.push_back(DefaultSubgroupOrder());
  return moduli;
}

std::vector<U256> Operands(Rng& rng, const U256& n) {
  std::vector<U256> ops = {U256(0), U256(1), n - U256(1)};
  for (int i = 0; i < 6; ++i) ops.push_back(RandBelow(rng, n));
  return ops;
}

/// R = 2^(64 * limbs()) mod n, the context's Montgomery radix.
U256 RModN(const MontgomeryContext& ctx) {
  return (U512(1) << (64 * ctx.limbs())).Mod(ctx.modulus());
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

TEST(MontgomeryOracleTest, LimbsIsCeilOfBitLength) {
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok()) << n.ToHex();
    EXPECT_EQ(ctx->limbs(), (n.BitLength() + 63) / 64) << n.ToHex();
  }
}

TEST(MontgomeryOracleTest, ReduceMatchesDivModOnAnyOperand) {
  Rng rng(5);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> ops = Operands(rng, n);
    ops.push_back(n);
    ops.push_back(n + n + U256(1));
    ops.push_back(U256(~0ULL, ~0ULL, ~0ULL, ~0ULL));
    ops.push_back(U256(0, 0, 0, 1));  // 2^192
    for (int i = 0; i < 6; ++i) {
      ops.push_back(U256::FromBytesBE(rng.RandomBytes(32)));
    }
    for (const U256& a : ops) {
      EXPECT_EQ(ctx->Reduce(a), DivMod(a, n).remainder)
          << "n " << n.ToHex() << " a " << a.ToHex();
    }
  }
}

TEST(MontgomeryOracleTest, MontMulAndMontSqrMatchSlowProduct) {
  Rng rng(1);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok()) << n.ToHex();
    const U256 r = RModN(*ctx);
    const std::vector<U256> ops = Operands(rng, n);
    for (const U256& a : ops) {
      for (const U256& b : ops) {
        const U256 got = ctx->MontMul(a, b);
        EXPECT_LT(got, n) << n.ToHex();
        EXPECT_EQ(ModMulSlow(got, r, n), ModMulSlow(a, b, n))
            << "n " << n.ToHex() << " a " << a.ToHex() << " b " << b.ToHex();
      }
      const U256 sq = ctx->MontSqr(a);
      EXPECT_EQ(sq, ctx->MontMul(a, a)) << n.ToHex() << " a " << a.ToHex();
      EXPECT_EQ(ModMulSlow(sq, r, n), ModMulSlow(a, a, n))
          << n.ToHex() << " a " << a.ToHex();
    }
  }
}

TEST(MontgomeryOracleTest, DomainConversionsMatchSlowProduct) {
  Rng rng(2);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    const U256 r = RModN(*ctx);
    for (const U256& a : Operands(rng, n)) {
      EXPECT_EQ(ctx->ToMont(a), ModMulSlow(a, r, n)) << n.ToHex();
      EXPECT_EQ(ModMulSlow(ctx->FromMont(a), r, n), a) << n.ToHex();
    }
  }
}

TEST(MontgomeryOracleTest, ModMulMatchesSlowProductOnAnyOperands) {
  Rng rng(3);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> ops = Operands(rng, n);
    // Unreduced operands too: ModMul reduces any 256-bit input.
    ops.push_back(n);
    ops.push_back(U256(~0ULL, ~0ULL, ~0ULL, ~0ULL));
    ops.push_back(U256::FromBytesBE(rng.RandomBytes(32)));
    for (const U256& a : ops) {
      for (const U256& b : ops) {
        EXPECT_EQ(ctx->ModMul(a, b), ModMulSlow(a, b, n))
            << "n " << n.ToHex() << " a " << a.ToHex() << " b " << b.ToHex();
      }
    }
  }
}

TEST(MontgomeryOracleTest, ModExpMatchesSlowLadder) {
  Rng rng(4);
  for (const U256& n : OracleModuli()) {
    Result<MontgomeryContext> ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    std::vector<U256> exps = {U256(0), U256(1), U256(2), n - U256(1),
                              RandBelow(rng, n),
                              U256::FromBytesBE(rng.RandomBytes(32))};
    for (const U256& e : exps) {
      Result<FixedExponentContext> fixed = FixedExponentContext::Create(*ctx, e);
      ASSERT_TRUE(fixed.ok());
      for (const U256& base : Operands(rng, n)) {
        const U256 want = SlowExp(base, e, n);
        EXPECT_EQ(fixed->ModExp(base), want)
            << "n " << n.ToHex() << " e " << e.ToHex() << " base "
            << base.ToHex();
        EXPECT_EQ(ctx->ModExp(base, e), want)
            << "n " << n.ToHex() << " e " << e.ToHex() << " base "
            << base.ToHex();
      }
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
