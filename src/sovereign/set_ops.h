#ifndef HSIS_SOVEREIGN_SET_OPS_H_
#define HSIS_SOVEREIGN_SET_OPS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/u256.h"
#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"
#include "sovereign/intersection_protocol.h"

/// \file
/// \brief Set-level helpers shared by every sovereign protocol path:
/// the flat multiset resolve and the tiled dataset commitment.
///
/// The two-party paths (legacy and streamed) and the n-party ring all
/// end the same way: match double-encrypted values against a multiset
/// with multiplicities, and publish a multiset-hash commitment of the
/// reported dataset. Both live here once, over flat vectors instead of
/// node-based maps, so the resolve is a sort plus binary searches and
/// the commitment folds in parallel tiles.

namespace hsis::sovereign {

/// A multiset of group elements held as one flat vector, sorted once
/// and then consumed copy by copy.
///
/// Build it by appending values (frame by frame, in any order), call
/// `Seal` once, then `Take` values out. `Take(v)` succeeds as long as an
/// unused copy of `v` remains, so a value present k times matches at
/// most k times — the multiplicity rule of the map-of-counts it
/// replaces. Each run of equal values carries a "used" count at its
/// first slot: the used copies of a run are always a prefix of it.
class FlatMultiset {
 public:
  FlatMultiset() = default;

  /// A sealed multiset of `values`.
  explicit FlatMultiset(std::vector<U256> values);

  /// Adds `values` to an unsealed multiset.
  void Append(std::span<const U256> values);

  /// Sorts the values; call once, after the last `Append`.
  void Seal();

  /// Consumes one unused copy of `v`. Returns false (and changes
  /// nothing) when the multiset holds no unused copy. Requires `Seal`.
  bool Take(const U256& v);

  /// The multiset intersection (each value with the smaller of its two
  /// multiplicities) of two sealed multisets, sealed, with no copy used.
  FlatMultiset Intersect(const FlatMultiset& other) const;

  /// Number of values, used copies included.
  size_t size() const { return values_.size(); }

 private:
  std::vector<U256> values_;   // sorted once sealed
  std::vector<uint32_t> used_;  // at each run's first slot: copies taken
  bool sealed_ = false;
};

/// The phase-3 reply as a lookup table: E_self(h(t)) -> E_peer(E_self(h(t))).
///
/// Built from the reply's flat (value, double-encryption) list in wire
/// order and stable-sorted by value. Among pairs with the same value the
/// last one on the wire wins, exactly like `mapping[value] = pair` over
/// the list.
class PairTable {
 public:
  /// `flat` holds the pairs back to back; a trailing odd element is
  /// ignored.
  explicit PairTable(std::span<const U256> flat);

  /// The double-encryption paired with `value`, or nullptr if the reply
  /// holds no pair for it.
  const U256* Find(const U256& value) const;

 private:
  std::vector<std::pair<U256, U256>> pairs_;  // sorted, one per value
};

/// Phase 4 of the two-party protocol in full mode: maps every own tuple
/// through `reply` (its E_self value is `self_encrypted[i]`, aligned
/// with `data.tuples()`) and sets `outcome.intersection` to the tuples
/// whose double encryption takes a copy from `peer`. A value missing from the
/// reply is a `ProtocolViolation`. Fills `intersection_size` too.
Status ResolveIntersection(const Dataset& data,
                           std::span<const U256> self_encrypted,
                           const PairTable& reply, FlatMultiset& peer,
                           IntersectionOutcome& outcome);

/// Tuples per commitment tile.
inline constexpr size_t kCommitmentTile = 1024;

/// The serialized commitment H(D) of `tuples`, folded over `threads`
/// workers (0 = hardware concurrency): each tile of `kCommitmentTile`
/// tuples gets its own `family.NewHash()`, and the tile accumulators
/// are combined with `Union` in tile order. All four multiset-hash
/// schemes are abelian groups under +H, so the result is the same bytes
/// as one accumulator `Add`ing every tuple in order, at every thread
/// count.
Result<Bytes> CommitTuples(std::span<const Tuple> tuples,
                           const crypto::MultisetHashFamily& family,
                           int threads);

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_SET_OPS_H_
