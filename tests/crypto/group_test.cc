#include "crypto/group.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace hsis::crypto {
namespace {

TEST(PrimeGroupTest, DefaultGroupProperties) {
  const PrimeGroup& g = PrimeGroup::Default();
  EXPECT_EQ(g.modulus().BitLength(), 256u);
  EXPECT_EQ(g.order(), (g.modulus() - U256(1)) >> 1);
}

TEST(PrimeGroupTest, CreateRejectsNonOdd) {
  EXPECT_FALSE(PrimeGroup::Create(U256(100)).ok());
  EXPECT_FALSE(PrimeGroup::Create(U256(5)).ok());  // below minimum
}

TEST(PrimeGroupTest, CreateWithPrimalityCheckRejectsComposite) {
  // 2q+1 with composite q shape: 27 = 2*13+1 and 13 is prime but 27 = 3^3.
  EXPECT_FALSE(PrimeGroup::Create(U256(27), true).ok());
  EXPECT_TRUE(PrimeGroup::Create(U256(23), true).ok());  // 23 = 2*11+1
}

TEST(PrimeGroupTest, HashToElementProducesSubgroupElements) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  for (int i = 0; i < 30; ++i) {
    Bytes data = ToBytes("element-" + std::to_string(i));
    U256 e = g.HashToElement(data);
    EXPECT_TRUE(g.IsElement(e)) << i;
  }
}

TEST(PrimeGroupTest, HashToElementDeterministic) {
  const PrimeGroup& g = PrimeGroup::Default();
  EXPECT_EQ(g.HashToElement(ToBytes("x")), g.HashToElement(ToBytes("x")));
  EXPECT_NE(g.HashToElement(ToBytes("x")), g.HashToElement(ToBytes("y")));
}

TEST(PrimeGroupTest, IsElementRejectsOutOfRange) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  EXPECT_FALSE(g.IsElement(U256(0)));
  EXPECT_FALSE(g.IsElement(g.modulus()));
  EXPECT_TRUE(g.IsElement(U256(1)));  // identity
  EXPECT_TRUE(g.IsElement(U256(4)));  // 2^2 is always a QR
}

TEST(PrimeGroupTest, NonResidueRejected) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  // p = 2q+1 with q odd => 2 divides (p-1)/2 never... -1 is a non-residue
  // for p ≡ 3 (mod 4), which holds for all safe primes > 7.
  U256 minus_one = g.modulus() - U256(1);
  EXPECT_FALSE(g.IsElement(minus_one));
}

TEST(PrimeGroupTest, MulExpInverseConsistency) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Rng rng(123);
  for (int i = 0; i < 20; ++i) {
    U256 a = g.HashToElement(rng.RandomBytes(8));
    U256 b = g.HashToElement(rng.RandomBytes(8));
    EXPECT_EQ(g.Mul(a, b), g.Mul(b, a));
    Result<U256> inv = g.Inverse(a);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ(g.Mul(a, *inv), PrimeGroup::One());
    // a^q == 1 (Lagrange)
    EXPECT_EQ(g.Exp(a, g.order()), PrimeGroup::One());
  }
}

TEST(PrimeGroupTest, RandomExponentInRange) {
  const PrimeGroup& g = PrimeGroup::Default();
  Rng rng(321);
  for (int i = 0; i < 20; ++i) {
    U256 e = g.RandomExponent(rng);
    EXPECT_FALSE(e.IsZero());
    EXPECT_LT(e, g.order());
  }
}

TEST(PrimeGroupTest, InverseExponentUndoesExp) {
  const PrimeGroup& g = PrimeGroup::SmallTestGroup();
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    U256 x = g.HashToElement(rng.RandomBytes(8));
    U256 e = g.RandomExponent(rng);
    Result<U256> d = g.InverseExponent(e);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(g.Exp(g.Exp(x, e), *d), x);
  }
}

// The HashToElement reduction (one conditional subtraction for a
// modulus >= 2^255, DivMod below that) against DivMod itself, over
// random digests and the edge values on both library groups.
TEST(PrimeGroupTest, ReduceDigestMatchesDivMod) {
  Rng rng(255);
  for (const PrimeGroup* g :
       {&PrimeGroup::Default(), &PrimeGroup::SmallTestGroup()}) {
    const U256& p = g->modulus();
    const U256 all_ones(~0ULL, ~0ULL, ~0ULL, ~0ULL);
    std::vector<U256> digests = {U256(0), U256(1),     p - U256(1),
                                 p,       p + U256(1), all_ones};
    for (int i = 0; i < 2000; ++i) {
      digests.push_back(U256::FromBytesBE(rng.RandomBytes(32)));
    }
    for (const U256& d : digests) {
      EXPECT_EQ(g->ReduceDigest(d), DivMod(d, p).remainder)
          << "p " << p.ToHex() << " digest " << d.ToHex();
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
