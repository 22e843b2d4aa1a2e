// Unit and differential suite for sovereign/set_ops.h, the flat
// multiset resolve and the tiled commitment shared by every protocol
// path. The resolve is checked against a map-of-counts reference (the
// node-based implementation it replaced) on random inputs with heavy
// duplication, conflicting duplicate pair keys, and omitted or swapped
// pairs; the commitment against one accumulator `Add`ing every tuple
// in order, for all four schemes, at tile boundaries and several
// thread counts.

#include "sovereign/set_ops.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/group.h"

namespace hsis::sovereign {
namespace {

using crypto::MultisetHashFamily;
using crypto::MultisetHashScheme;

Tuple Numbered(const char* prefix, uint64_t i) {
  std::string value = prefix;
  value += std::to_string(i);
  return Tuple::FromString(value);
}

TEST(FlatMultisetTest, TakeHonorsMultiplicities) {
  const U256 a(5), b(9), c(2);
  FlatMultiset m;
  m.Append(std::vector<U256>{a, b});
  m.Append(std::vector<U256>{a});
  m.Seal();
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FALSE(m.Take(c));
  EXPECT_TRUE(m.Take(a));
  EXPECT_TRUE(m.Take(b));
  EXPECT_TRUE(m.Take(a));
  EXPECT_FALSE(m.Take(a));  // both copies used
  EXPECT_FALSE(m.Take(b));
}

TEST(FlatMultisetTest, IntersectKeepsTheSmallerMultiplicity) {
  FlatMultiset x(std::vector<U256>{U256(1), U256(1), U256(1), U256(2),
                                   U256(3)});
  FlatMultiset y(std::vector<U256>{U256(3), U256(1), U256(1), U256(4)});
  FlatMultiset both = x.Intersect(y);
  EXPECT_EQ(both.size(), 3u);
  EXPECT_TRUE(both.Take(U256(1)));
  EXPECT_TRUE(both.Take(U256(1)));
  EXPECT_FALSE(both.Take(U256(1)));
  EXPECT_TRUE(both.Take(U256(3)));
  EXPECT_FALSE(both.Take(U256(2)));
  EXPECT_FALSE(both.Take(U256(4)));
}

TEST(PairTableTest, LastDuplicateWinsAndOddTailIgnored) {
  const std::vector<U256> flat = {U256(7), U256(70), U256(3), U256(30),
                                  U256(7), U256(71), U256(7), U256(72),
                                  U256(9)};
  PairTable table(flat);
  ASSERT_NE(table.Find(U256(7)), nullptr);
  EXPECT_EQ(*table.Find(U256(7)), U256(72));
  ASSERT_NE(table.Find(U256(3)), nullptr);
  EXPECT_EQ(*table.Find(U256(3)), U256(30));
  EXPECT_EQ(table.Find(U256(9)), nullptr);  // the unpaired tail
  EXPECT_EQ(table.Find(U256(70)), nullptr);
}

/// The map-based resolve the flat helper replaced, kept as the oracle.
Result<Dataset> MapResolve(const Dataset& data,
                           const std::vector<U256>& self_encrypted,
                           const std::vector<U256>& reply,
                           const std::vector<U256>& peer) {
  std::map<U256, U256> mapping;
  for (size_t i = 0; i + 2 <= reply.size(); i += 2) {
    mapping[reply[i]] = reply[i + 1];
  }
  std::map<U256, size_t> counts;
  for (const U256& v : peer) counts[v]++;
  Dataset out;
  for (size_t i = 0; i < data.size(); ++i) {
    auto it = mapping.find(self_encrypted[i]);
    if (it == mapping.end()) {
      return Status::ProtocolViolation("omitted");
    }
    auto c = counts.find(it->second);
    if (c != counts.end() && c->second > 0) {
      --c->second;
      out.Add(data.tuples()[i]);
    }
  }
  return out;
}

TEST(ResolveIntersectionTest, MatchesMapReferenceUnderDuplicatesAndFaults) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    // Tiny value pools force duplicate tuples, duplicate encryptions and
    // conflicting duplicate reply keys.
    const size_t n = rng.UniformUint64(12);
    std::vector<Tuple> tuples;
    for (size_t i = 0; i < n; ++i) {
      tuples.push_back(Numbered("t", rng.UniformUint64(4)));
    }
    Dataset data(tuples);
    std::vector<U256> self_encrypted(n), reply;
    for (size_t i = 0; i < n; ++i) {
      self_encrypted[i] = U256(rng.UniformUint64(5));
      reply.push_back(self_encrypted[i]);
      reply.push_back(U256(100 + rng.UniformUint64(4)));
    }
    if (rng.UniformUint64(4) == 0 && reply.size() >= 4) {
      std::swap(reply[1], reply[3]);  // swapped double encryptions
    }
    if (rng.UniformUint64(4) == 0 && reply.size() >= 2) {
      reply.pop_back();  // an omitted pair (or the odd tail it leaves)
      if (rng.UniformUint64(2) == 0) reply.pop_back();
    }
    std::vector<U256> peer;
    const size_t m = rng.UniformUint64(10);
    for (size_t i = 0; i < m; ++i) {
      peer.push_back(U256(100 + rng.UniformUint64(5)));
    }

    Result<Dataset> want = MapResolve(data, self_encrypted, reply, peer);
    IntersectionOutcome got;
    FlatMultiset peer_set(peer);
    Status s = ResolveIntersection(data, self_encrypted, PairTable(reply),
                                   peer_set, got);
    ASSERT_EQ(s.ok(), want.ok()) << "trial " << trial;
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kProtocolViolation);
      continue;
    }
    EXPECT_EQ(got.intersection, *want) << "trial " << trial;
    EXPECT_EQ(got.intersection_size, want->size());
  }
}

std::vector<MultisetHashFamily> AllFamilies() {
  std::vector<MultisetHashFamily> families;
  families.push_back(
      MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
  families.push_back(
      MultisetHashFamily::Create(MultisetHashScheme::kVAdd).value());
  families.push_back(
      MultisetHashFamily::Create(MultisetHashScheme::kXor, ToBytes("key-x"))
          .value());
  families.push_back(
      MultisetHashFamily::Create(MultisetHashScheme::kAdd, ToBytes("key-a"))
          .value());
  return families;
}

TEST(CommitTuplesTest, TiledEqualsSerialAddAtTileBoundaries) {
  const size_t tile = kCommitmentTile;
  std::vector<Tuple> pool;
  for (size_t i = 0; i < 3 * tile + 7; ++i) {
    // Every tenth value repeats, so multiplicities cross tiles.
    pool.push_back(Numbered("v", i % 10 == 0 ? 0 : i));
  }
  for (const MultisetHashFamily& family : AllFamilies()) {
    for (size_t n : {size_t{0}, size_t{1}, tile - 1, tile, tile + 1,
                     2 * tile, 2 * tile + 1, pool.size()}) {
      std::span<const Tuple> tuples(pool.data(), n);
      auto serial = family.NewHash();
      for (const Tuple& t : tuples) serial->Add(t.value);
      for (int threads : {1, 2, 8}) {
        Result<Bytes> tiled = CommitTuples(tuples, family, threads);
        ASSERT_TRUE(tiled.ok());
        EXPECT_EQ(*tiled, serial->Serialize())
            << crypto::MultisetHashSchemeName(family.scheme()) << " n " << n
            << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace hsis::sovereign
