#include "sovereign/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace hsis::sovereign {
namespace {

TEST(TupleTest, StringRoundTripAndOrdering) {
  Tuple t = Tuple::FromString("alice");
  EXPECT_EQ(t.ToString(), "alice");
  EXPECT_EQ(t, Tuple::FromString("alice"));
  EXPECT_LT(Tuple::FromString("alice"), Tuple::FromString("bob"));
}

TEST(DatasetTest, CanonicalOrderIndependentOfInsertion) {
  Dataset a = Dataset::FromStrings({"c", "a", "b"});
  Dataset b = Dataset::FromStrings({"a", "b", "c"});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.tuples()[0].ToString(), "a");
  EXPECT_EQ(a.tuples()[2].ToString(), "c");
}

// The vector constructor skips its sort on input already in canonical
// order; sorted, unsorted and duplicate-laden input must all land on
// the order repeated `Add` calls build.
TEST(DatasetTest, VectorConstructorMatchesAddOnAnyInputOrder) {
  const std::vector<std::vector<std::string>> inputs = {
      {},
      {"a"},
      {"a", "b", "c", "d"},
      {"d", "c", "b", "a"},
      {"b", "a", "c", "a"},
      {"a", "a", "b", "b", "b"},
      {"b", "b", "a", "a", "b"},
      {"ab", "a", "", "b", ""},
  };
  for (const std::vector<std::string>& values : inputs) {
    std::vector<Tuple> tuples;
    Dataset added;
    for (const std::string& v : values) {
      tuples.push_back(Tuple::FromString(v));
      added.Add(Tuple::FromString(v));
    }
    const Dataset built(std::move(tuples));
    EXPECT_EQ(built, added) << values.size() << " values";
    EXPECT_TRUE(std::is_sorted(built.tuples().begin(), built.tuples().end()));
  }
}

TEST(DatasetTest, AddKeepsOrder) {
  Dataset d;
  d.Add(Tuple::FromString("m"));
  d.Add(Tuple::FromString("a"));
  d.Add(Tuple::FromString("z"));
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.tuples()[0].ToString(), "a");
  EXPECT_EQ(d.tuples()[1].ToString(), "m");
  EXPECT_EQ(d.tuples()[2].ToString(), "z");
}

TEST(DatasetTest, ContainsAndCount) {
  Dataset d = Dataset::FromStrings({"x", "y", "x"});
  EXPECT_TRUE(d.Contains(Tuple::FromString("x")));
  EXPECT_FALSE(d.Contains(Tuple::FromString("z")));
  EXPECT_EQ(d.Count(Tuple::FromString("x")), 2u);
  EXPECT_EQ(d.Count(Tuple::FromString("y")), 1u);
  EXPECT_EQ(d.Count(Tuple::FromString("z")), 0u);
}

TEST(DatasetTest, IntersectMatchesPaperExample) {
  // Section 1: V_R = {b, u, v, y}, V_S = {a, u, v, x} -> {u, v}.
  Dataset vr = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset vs = Dataset::FromStrings({"a", "u", "v", "x"});
  EXPECT_EQ(vr.Intersect(vs), Dataset::FromStrings({"u", "v"}));
}

TEST(DatasetTest, MultisetIntersection) {
  Dataset a = Dataset::FromStrings({"x", "x", "x", "y"});
  Dataset b = Dataset::FromStrings({"x", "x", "z"});
  EXPECT_EQ(a.Intersect(b), Dataset::FromStrings({"x", "x"}));
}

TEST(DatasetTest, UnionAndDifference) {
  Dataset a = Dataset::FromStrings({"p", "q"});
  Dataset b = Dataset::FromStrings({"q", "r"});
  EXPECT_EQ(a.Union(b), Dataset::FromStrings({"p", "q", "q", "r"}));
  EXPECT_EQ(a.Difference(b), Dataset::FromStrings({"p"}));
  EXPECT_EQ(b.Difference(a), Dataset::FromStrings({"r"}));
}

TEST(DatasetTest, EmptyDatasetBehaves) {
  Dataset empty;
  Dataset a = Dataset::FromStrings({"x"});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Intersect(a), Dataset());
  EXPECT_EQ(a.Intersect(empty), Dataset());
  EXPECT_EQ(a.Union(empty), a);
  EXPECT_EQ(a.Difference(empty), a);
}

TEST(DatasetTest, RemoveRandomShrinks) {
  Rng rng(1);
  Dataset d = Dataset::FromStrings({"a", "b", "c", "d", "e"});
  d.RemoveRandom(2, rng);
  EXPECT_EQ(d.size(), 3u);
  d.RemoveRandom(100, rng);
  EXPECT_TRUE(d.empty());
}

}  // namespace
}  // namespace hsis::sovereign
