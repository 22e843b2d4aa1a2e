#ifndef HSIS_SOVEREIGN_DATASET_H_
#define HSIS_SOVEREIGN_DATASET_H_

#include <compare>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"

namespace hsis::sovereign {

/// One database tuple. The protocol layer treats tuples as opaque byte
/// strings; the relational-operator layer adds a key/payload convention
/// on top (see relational_ops.h).
struct Tuple {
  Bytes value;

  Tuple() = default;
  explicit Tuple(Bytes v) : value(std::move(v)) {}

  static Tuple FromString(std::string_view s) { return Tuple(ToBytes(s)); }
  std::string ToString() const { return BytesToString(value); }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.value == b.value;
  }
  /// Lexicographic byte order (`CompareBytes`).
  friend std::strong_ordering operator<=>(const Tuple& a, const Tuple& b) {
    return CompareBytes(a.value, b.value) <=> 0;
  }
};

/// A multiset of tuples — one party's database D_i.
///
/// Stored in canonical (sorted) order so that equality, hashing and the
/// exact set operations used as protocol ground truth are well defined.
class Dataset {
 public:
  Dataset() = default;
  /// Takes `tuples` in any order and sorts them; input already in
  /// canonical order (e.g. a filtered walk of another dataset) costs
  /// one linear check instead of a sort.
  explicit Dataset(std::vector<Tuple> tuples);

  static Dataset FromStrings(std::initializer_list<std::string_view> values);
  static Dataset FromStrings(const std::vector<std::string>& values);

  void Add(Tuple tuple);
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Tuples in canonical order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  bool Contains(const Tuple& tuple) const;

  /// Number of occurrences of `tuple`.
  size_t Count(const Tuple& tuple) const;

  /// Exact multiset operations (protocol ground truth).
  Dataset Intersect(const Dataset& other) const;
  Dataset Union(const Dataset& other) const;
  Dataset Difference(const Dataset& other) const;

  /// Removes `n` uniformly-chosen tuples (withholding cheat). Removes
  /// everything if n >= size.
  void RemoveRandom(size_t n, Rng& rng);

  friend bool operator==(const Dataset& a, const Dataset& b) {
    return a.tuples_ == b.tuples_;
  }

 private:
  std::vector<Tuple> tuples_;  // kept sorted
};

/// Read-only chunked cursor over a `Dataset`: the streamed protocol
/// pipeline's input stage. Yields the dataset's canonical tuple order as
/// fixed-size frames of at most `chunk_size` tuples, so tuples are
/// hashed-to-group, encrypted, and shipped frame by frame instead of as
/// whole-set vectors. Indexed access (rather than a single forward
/// iterator) lets parallel stages address chunks independently.
///
/// The cursor borrows the dataset; the dataset must outlive it and stay
/// unmodified while the cursor is in use.
class DatasetSource {
 public:
  /// `chunk_size` must be >= 1 (callers validate via
  /// `ValidateIntersectionOptions`; a zero chunk size is clamped to 1
  /// here so the cursor itself is total).
  DatasetSource(const Dataset& dataset, size_t chunk_size);

  /// Total tuples across all chunks.
  size_t total() const { return dataset_->size(); }

  /// Frame size in tuples (the last chunk may be smaller).
  size_t chunk_size() const { return chunk_size_; }

  /// Number of chunks: ceil(total / chunk_size); 0 for an empty dataset.
  size_t chunk_count() const;

  /// Tuples of chunk `index` (in [0, chunk_count())), canonical order.
  std::span<const Tuple> Chunk(size_t index) const;

 private:
  const Dataset* dataset_;
  size_t chunk_size_;
};

}  // namespace hsis::sovereign

#endif  // HSIS_SOVEREIGN_DATASET_H_
