#include "sovereign/set_ops.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"

namespace hsis::sovereign {

namespace {

// The numeric order of `U256::operator<=>`, inlined: the sorts and
// binary searches below compare millions of values.
struct U256Less {
  bool operator()(const U256& a, const U256& b) const {
    for (size_t i = 4; i-- > 0;) {
      if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i];
    }
    return false;
  }
};

}  // namespace

FlatMultiset::FlatMultiset(std::vector<U256> values)
    : values_(std::move(values)) {
  Seal();
}

void FlatMultiset::Append(std::span<const U256> values) {
  HSIS_CHECK(!sealed_) << "FlatMultiset::Append after Seal";
  values_.insert(values_.end(), values.begin(), values.end());
}

void FlatMultiset::Seal() {
  HSIS_CHECK(!sealed_) << "FlatMultiset sealed twice";
  std::sort(values_.begin(), values_.end(), U256Less());
  used_.assign(values_.size(), 0);
  sealed_ = true;
}

bool FlatMultiset::Take(const U256& v) {
  HSIS_CHECK(sealed_) << "FlatMultiset::Take before Seal";
  auto run = std::lower_bound(values_.begin(), values_.end(), v, U256Less());
  if (run == values_.end() || *run != v) return false;
  const size_t first = static_cast<size_t>(run - values_.begin());
  const size_t slot = first + used_[first];
  if (slot == values_.size() || values_[slot] != v) return false;
  ++used_[first];
  return true;
}

FlatMultiset FlatMultiset::Intersect(const FlatMultiset& other) const {
  HSIS_CHECK(sealed_ && other.sealed_) << "FlatMultiset::Intersect unsealed";
  FlatMultiset out;
  std::set_intersection(values_.begin(), values_.end(), other.values_.begin(),
                        other.values_.end(), std::back_inserter(out.values_),
                        U256Less());
  out.used_.assign(out.values_.size(), 0);
  out.sealed_ = true;
  return out;
}

PairTable::PairTable(std::span<const U256> flat) {
  pairs_.reserve(flat.size() / 2);
  for (size_t i = 0; i + 2 <= flat.size(); i += 2) {
    pairs_.emplace_back(flat[i], flat[i + 1]);
  }
  auto by_value = [](const std::pair<U256, U256>& a,
                     const std::pair<U256, U256>& b) {
    return U256Less()(a.first, b.first);
  };
  std::stable_sort(pairs_.begin(), pairs_.end(), by_value);
  // Keep the last pair of each run of equal values: stable sorting left
  // the runs in wire order, so that is the pair a map assignment keeps.
  size_t kept = 0;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i + 1 < pairs_.size() && pairs_[i + 1].first == pairs_[i].first) {
      continue;
    }
    pairs_[kept++] = pairs_[i];
  }
  pairs_.resize(kept);
}

const U256* PairTable::Find(const U256& value) const {
  auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), value,
      [](const std::pair<U256, U256>& p, const U256& v) {
        return U256Less()(p.first, v);
      });
  if (it == pairs_.end() || it->first != value) return nullptr;
  return &it->second;
}

Status ResolveIntersection(const Dataset& data,
                           std::span<const U256> self_encrypted,
                           const PairTable& reply, FlatMultiset& peer,
                           IntersectionOutcome& outcome) {
  std::vector<U256> own_double_encrypted;
  own_double_encrypted.reserve(self_encrypted.size());
  for (const U256& v : self_encrypted) {
    const U256* dd = reply.Find(v);
    if (dd == nullptr) {
      return Status::ProtocolViolation(
          "peer reply omits one of our encrypted values");
    }
    own_double_encrypted.push_back(*dd);
  }
  const std::vector<Tuple>& tuples = data.tuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (peer.Take(own_double_encrypted[i])) {
      outcome.intersection.Add(tuples[i]);
    }
  }
  outcome.intersection_size = outcome.intersection.size();
  return Status::OK();
}

Result<Bytes> CommitTuples(std::span<const Tuple> tuples,
                           const crypto::MultisetHashFamily& family,
                           int threads) {
  const size_t tiles = (tuples.size() + kCommitmentTile - 1) / kCommitmentTile;
  std::vector<std::unique_ptr<crypto::MultisetHash>> partial(tiles);
  common::ParallelForTiles(threads, tuples.size(), kCommitmentTile,
                           [&](size_t lo, size_t hi) {
                             auto hash = family.NewHash();
                             for (size_t i = lo; i < hi; ++i) {
                               hash->Add(tuples[i].value);
                             }
                             partial[lo / kCommitmentTile] = std::move(hash);
                           });
  std::unique_ptr<crypto::MultisetHash> total = family.NewHash();
  for (const auto& tile : partial) HSIS_RETURN_IF_ERROR(total->Union(*tile));
  return total->Serialize();
}

}  // namespace hsis::sovereign
