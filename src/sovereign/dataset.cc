#include "sovereign/dataset.h"

#include <algorithm>

namespace hsis::sovereign {

Dataset::Dataset(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {
  if (!std::is_sorted(tuples_.begin(), tuples_.end())) {
    std::sort(tuples_.begin(), tuples_.end());
  }
}

Dataset Dataset::FromStrings(std::initializer_list<std::string_view> values) {
  std::vector<Tuple> tuples;
  tuples.reserve(values.size());
  for (std::string_view v : values) tuples.push_back(Tuple::FromString(v));
  return Dataset(std::move(tuples));
}

Dataset Dataset::FromStrings(const std::vector<std::string>& values) {
  std::vector<Tuple> tuples;
  tuples.reserve(values.size());
  for (const std::string& v : values) tuples.push_back(Tuple::FromString(v));
  return Dataset(std::move(tuples));
}

void Dataset::Add(Tuple tuple) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), tuple);
  tuples_.insert(it, std::move(tuple));
}

bool Dataset::Contains(const Tuple& tuple) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), tuple);
}

size_t Dataset::Count(const Tuple& tuple) const {
  auto range = std::equal_range(tuples_.begin(), tuples_.end(), tuple);
  return static_cast<size_t>(range.second - range.first);
}

Dataset Dataset::Intersect(const Dataset& other) const {
  std::vector<Tuple> out;
  std::set_intersection(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                        other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

Dataset Dataset::Union(const Dataset& other) const {
  std::vector<Tuple> out;
  std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
             other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

Dataset Dataset::Difference(const Dataset& other) const {
  std::vector<Tuple> out;
  std::set_difference(tuples_.begin(), tuples_.end(), other.tuples_.begin(),
                      other.tuples_.end(), std::back_inserter(out));
  return Dataset(std::move(out));
}

DatasetSource::DatasetSource(const Dataset& dataset, size_t chunk_size)
    : dataset_(&dataset), chunk_size_(std::max<size_t>(chunk_size, 1)) {}

size_t DatasetSource::chunk_count() const {
  return (dataset_->size() + chunk_size_ - 1) / chunk_size_;
}

std::span<const Tuple> DatasetSource::Chunk(size_t index) const {
  size_t begin = index * chunk_size_;
  size_t end = std::min(begin + chunk_size_, dataset_->size());
  return std::span<const Tuple>(dataset_->tuples()).subspan(begin, end - begin);
}

void Dataset::RemoveRandom(size_t n, Rng& rng) {
  n = std::min(n, tuples_.size());
  for (size_t k = 0; k < n; ++k) {
    size_t idx = rng.UniformUint64(tuples_.size());
    tuples_.erase(tuples_.begin() + static_cast<ptrdiff_t>(idx));
  }
}

}  // namespace hsis::sovereign
