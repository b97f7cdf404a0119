#pragma once

#include <cstdint>
#include <vector>

#include "sketch/minhash.h"
#include "util/status.h"

/// \file hash_query_index.h
/// The Hash-Query index over continuous-query sketches (paper §V-C, Fig. 4).
///
/// Row r holds one `(value, ordinal)` pair per subscribed query: its r-th
/// min-hash value and the caller's ordinal for it, sorted by value, then
/// ordinal. Each row is a posting list, so a basic-window sketch finds the
/// queries sharing a min-hash value with it (its related queries, `R_L`)
/// by one binary search per row. Values and ordinals are two parallel
/// arrays: 12 bytes per entry, and the search touches only the values.
///
/// The paper's `up`/`down` links between rows are not kept: they serve
/// Fig. 5's row-by-row signature fill, and the caller instead builds each
/// related query's signature from the sketch it holds (DESIGN.md §6).

namespace vcd::index {

/// \brief K sorted `(value, ordinal)` rows with online insert/remove.
class HashQueryIndex {
 public:
  /// One query to index: the caller's ordinal and its sketch (not owned).
  struct Query {
    int ordinal = 0;
    const sketch::Sketch* sketch = nullptr;
  };

  /// Builds the index over K = \p k rows from \p queries (possibly none).
  /// Every sketch must have K values; ordinals must be unique and ≥ 0.
  static Result<HashQueryIndex> Build(int k, const std::vector<Query>& queries);

  /// Number of hash functions K.
  int K() const { return static_cast<int>(rows_.size()); }
  /// Number of indexed queries m.
  int num_queries() const {
    return rows_.empty() ? 0 : static_cast<int>(rows_[0].ordinals.size());
  }

  /// Subscribes query \p ordinal online: one binary search and one splice
  /// per row. Fails if the ordinal is already indexed or the K differs.
  Status Insert(int ordinal, const sketch::Sketch& sk);

  /// Unsubscribes query \p ordinal, whose indexed sketch is \p sk. NotFound
  /// (and no change) unless every row holds `(sk.mins[r], ordinal)`.
  Status Remove(int ordinal, const sketch::Sketch& sk);

  /// Writes to \p out, ascending, the ordinals of all queries that share at
  /// least one min-hash value with basic-window sketch \p window. \p seen is
  /// the caller's reusable dedup bitmap (a bit per ordinal): all-zero on
  /// entry and again on return, so it grows only with the ordinal range.
  void ProbeRelatedInto(const sketch::Sketch& window, std::vector<uint64_t>* seen,
                        std::vector<int>* out) const;

  /// Row \p r's values, ascending, and its ordinals aligned with them.
  const std::vector<uint64_t>& values(int r) const {
    return rows_[static_cast<size_t>(r)].values;
  }
  const std::vector<int32_t>& ordinals(int r) const {
    return rows_[static_cast<size_t>(r)].ordinals;
  }

  /// Verifies the structural invariants: value and ordinal arrays of equal
  /// length in every row, every row strictly sorted by (value, ordinal),
  /// and every row holding each ordinal of row 0 exactly once.
  Status Validate() const;

  /// Mutable row arrays — exist only so tests can corrupt the rows and
  /// assert that Validate() reports it. Library code must not call these.
  std::vector<uint64_t>& mutable_values_for_test(int r) {
    return rows_[static_cast<size_t>(r)].values;
  }
  std::vector<int32_t>& mutable_ordinals_for_test(int r) {
    return rows_[static_cast<size_t>(r)].ordinals;
  }

 private:
  struct Row {
    std::vector<uint64_t> values;   ///< ascending
    std::vector<int32_t> ordinals;  ///< ascending within equal values
  };

  explicit HashQueryIndex(int k) : rows_(static_cast<size_t>(k)) {}

  /// Position of the pair (\p v, \p ordinal) in row \p r, or where it goes.
  size_t LowerBound(int r, uint64_t v, int ordinal) const;

  std::vector<Row> rows_;
  int ordinal_bound_ = 0;  ///< 1 + the largest ordinal ever indexed
};

}  // namespace vcd::index
