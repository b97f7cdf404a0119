#include "index/hash_query_index.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

namespace vcd::index {

Result<HashQueryIndex> HashQueryIndex::Build(int k, const std::vector<Query>& queries) {
  if (k < 1) return Status::InvalidArgument("sketch K must be >= 1");
  HashQueryIndex idx(k);
  std::vector<int> ordinals;
  for (const Query& q : queries) {
    if (q.sketch == nullptr || q.sketch->K() != k) {
      return Status::InvalidArgument("sketch K does not match index");
    }
    if (q.ordinal < 0) return Status::InvalidArgument("negative query ordinal");
    ordinals.push_back(q.ordinal);
  }
  std::sort(ordinals.begin(), ordinals.end());
  if (std::adjacent_find(ordinals.begin(), ordinals.end()) != ordinals.end()) {
    return Status::AlreadyExists("duplicate query ordinal");
  }
  idx.ordinal_bound_ = ordinals.empty() ? 0 : ordinals.back() + 1;
  // One row at a time: sort its (value, ordinal) pairs, then split them
  // into the row's two arrays.
  const size_t m = queries.size();
  std::vector<std::pair<uint64_t, int32_t>> pairs(m);
  for (int r = 0; r < k; ++r) {
    for (size_t i = 0; i < m; ++i) {
      pairs[i] = {queries[i].sketch->mins[static_cast<size_t>(r)], queries[i].ordinal};
    }
    std::sort(pairs.begin(), pairs.end());
    Row& row = idx.rows_[static_cast<size_t>(r)];
    row.values.resize(m);
    row.ordinals.resize(m);
    for (size_t j = 0; j < m; ++j) {
      row.values[j] = pairs[j].first;
      row.ordinals[j] = pairs[j].second;
    }
  }
  return idx;
}

size_t HashQueryIndex::LowerBound(int r, uint64_t v, int ordinal) const {
  const Row& row = rows_[static_cast<size_t>(r)];
  const auto lo = std::lower_bound(row.values.begin(), row.values.end(), v);
  const auto hi = std::upper_bound(lo, row.values.end(), v);
  const auto first = row.ordinals.begin() + (lo - row.values.begin());
  const auto last = row.ordinals.begin() + (hi - row.values.begin());
  return static_cast<size_t>(std::lower_bound(first, last, ordinal) -
                             row.ordinals.begin());
}

Status HashQueryIndex::Insert(int ordinal, const sketch::Sketch& sk) {
  if (sk.K() != K()) return Status::InvalidArgument("sketch K does not match index");
  if (ordinal < 0) return Status::InvalidArgument("negative query ordinal");
  const std::vector<int32_t>& row0 = rows_[0].ordinals;
  if (std::find(row0.begin(), row0.end(), ordinal) != row0.end()) {
    return Status::AlreadyExists("query ordinal " + std::to_string(ordinal));
  }
  for (int r = 0; r < K(); ++r) {
    const uint64_t v = sk.mins[static_cast<size_t>(r)];
    const auto pos = static_cast<std::ptrdiff_t>(LowerBound(r, v, ordinal));
    Row& row = rows_[static_cast<size_t>(r)];
    row.values.insert(row.values.begin() + pos, v);
    row.ordinals.insert(row.ordinals.begin() + pos, ordinal);
  }
  ordinal_bound_ = std::max(ordinal_bound_, ordinal + 1);
  return Status::OK();
}

Status HashQueryIndex::Remove(int ordinal, const sketch::Sketch& sk) {
  if (sk.K() != K()) return Status::InvalidArgument("sketch K does not match index");
  // Check every row before touching any, so a failed Remove changes nothing.
  for (int r = 0; r < K(); ++r) {
    const uint64_t v = sk.mins[static_cast<size_t>(r)];
    const size_t j = LowerBound(r, v, ordinal);
    const Row& row = rows_[static_cast<size_t>(r)];
    if (j == row.values.size() || row.values[j] != v || row.ordinals[j] != ordinal) {
      return Status::NotFound("query ordinal not indexed with this sketch");
    }
  }
  for (int r = 0; r < K(); ++r) {
    const auto pos = static_cast<std::ptrdiff_t>(
        LowerBound(r, sk.mins[static_cast<size_t>(r)], ordinal));
    Row& row = rows_[static_cast<size_t>(r)];
    row.values.erase(row.values.begin() + pos);
    row.ordinals.erase(row.ordinals.begin() + pos);
  }
  return Status::OK();
}

void HashQueryIndex::ProbeRelatedInto(const sketch::Sketch& window,
                                      std::vector<uint64_t>* seen,
                                      std::vector<int>* out) const {
  out->clear();
  const size_t words = (static_cast<size_t>(ordinal_bound_) + 63) / 64;
  if (seen->size() < words) seen->resize(words, 0);
  uint64_t* bits = seen->data();
  for (int r = 0; r < K(); ++r) {
    const Row& row = rows_[static_cast<size_t>(r)];
    const uint64_t v = window.mins[static_cast<size_t>(r)];
    auto j = static_cast<size_t>(
        std::lower_bound(row.values.begin(), row.values.end(), v) - row.values.begin());
    for (; j < row.values.size() && row.values[j] == v; ++j) {
      const auto o = static_cast<uint32_t>(row.ordinals[j]);
      bits[o >> 6] |= uint64_t{1} << (o & 63);
    }
  }
  // Reading the bitmap in word order yields the ordinals ascending.
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t b = bits[w]; b != 0; b &= b - 1) {
      out->push_back(static_cast<int>(w * 64) + std::countr_zero(b));
    }
    bits[w] = 0;
  }
}

Status HashQueryIndex::Validate() const {
  const size_t m = rows_.empty() ? 0 : rows_[0].ordinals.size();
  // stamp[o] = the last row holding ordinal o. Row r must hold exactly the
  // ordinals of row r-1, each once, so each stamp must step from r-1 to r.
  std::vector<int> stamp(static_cast<size_t>(ordinal_bound_), -1);
  for (size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    const auto fail = [r](const char* what) {
      return Status::Internal("HQ row " + std::to_string(r) + ": " + what);
    };
    if (row.values.size() != m || row.ordinals.size() != m) {
      return fail("length differs from row 0");
    }
    for (size_t j = 0; j < m; ++j) {
      const int32_t o = row.ordinals[j];
      if (o < 0 || o >= ordinal_bound_) return fail("ordinal out of range");
      if (j > 0 && std::pair(row.values[j - 1], row.ordinals[j - 1]) >=
                       std::pair(row.values[j], o)) {
        return fail("not strictly sorted by (value, ordinal)");
      }
      int& s = stamp[static_cast<size_t>(o)];
      if (s == static_cast<int>(r)) return fail("duplicated ordinal");
      if (s != static_cast<int>(r) - 1) return fail("ordinal missing from the row above");
      s = static_cast<int>(r);
    }
  }
  return Status::OK();
}

}  // namespace vcd::index
