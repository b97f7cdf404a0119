#pragma once

#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "index/hash_query_index.h"
#include "sketch/minhash.h"
#include "util/status.h"

/// \file portfolio.h
/// The continuous-query table of paper §V-C: every subscribed query's
/// min-hash sketch and λL window cap, the id → ordinal map, and the one
/// Hash-Query index that every monitored stream's basic windows probe.

namespace vcd::core {

/// The checks Portfolio::AddQuerySketch applies to a subscription: the
/// sketch's K equals \p config's, the query has at least one frame and a
/// positive duration. A multi-stream engine calls it before changing any
/// state, so a query every shard would refuse never enters its portfolio.
Status ValidateQuerySketch(const DetectorConfig& config, const sketch::Sketch& sk,
                           int length_frames, double duration_seconds);

/// \brief The queries a set of CopyDetectors watch for, with their index.
///
/// A bare CopyDetector owns one. An executor shard owns one and shares it
/// among every stream pinned to it, so the query table, and each churn op
/// and index build on it, exists once per shard rather than once per
/// stream. Not thread-safe: the portfolio and every detector sharing it
/// run on one thread. A query keeps its ordinal for the portfolio's
/// lifetime (a removed ordinal is never reused), and a sharing detector
/// sizes its per-ordinal state from num_ordinals() at every basic window.
class Portfolio {
 public:
  /// One subscribed query.
  struct QueryRec {
    int id = 0;               ///< subscriber-assigned query id
    int length_frames = 0;    ///< query length L in key frames
    double duration_seconds = 0.0;
    /// Freed by RemoveQuery: only active records hold their K values.
    sketch::Sketch sketch;  // NOLINT(vcd-pooled-hotpath): per-query, cold
    int max_windows = 0;      ///< ⌈λL/w⌉
    bool active = true;
  };

  /// An empty portfolio for detectors running \p config: its K, λ, window
  /// and use_index apply here, and Serves() checks a detector against it.
  explicit Portfolio(const DetectorConfig& config);

  /// True when a detector running \p config may share this portfolio: the
  /// same K and hash seed (one min-hash family), λ, window and index setting.
  bool Serves(const DetectorConfig& config) const;

  /// Subscribes a query from its sketch (see CopyDetector::AddQuerySketch).
  Status AddQuerySketch(int id, sketch::Sketch sk, int length_frames,
                        double duration_seconds);

  /// Unsubscribes a query and frees its sketch; its ordinal stays reserved.
  Status RemoveQuery(int id);

  /// The active queries as (id, length_frames, duration, sketch) tuples, in
  /// ordinal order.
  std::vector<std::tuple<int, int, double, sketch::Sketch>> ExportQueries() const;

  /// Builds the Hash-Query index from the active queries when a
  /// subscription made before the first build left it stale. Detectors call
  /// it before every frame; once built, the index is kept up to date online.
  Status EnsureIndex();

  /// Ordinals issued so far, removed ones included.
  int num_ordinals() const { return static_cast<int>(queries_.size()); }

  /// Subscribed queries: the active ordinals, removed ones excluded.
  int num_queries() const { return static_cast<int>(id_to_ordinal_.size()); }

  /// The record of ordinal \p q (in [0, num_ordinals())).
  const QueryRec& query(int q) const { return queries_[static_cast<size_t>(q)]; }

  /// O(1) id → ordinal lookup over active queries; -1 when absent.
  int OrdinalOf(int query_id) const {
    auto it = id_to_ordinal_.find(query_id);
    return it == id_to_ordinal_.end() ? -1 : it->second;
  }

  /// Per-ordinal λL window cap, 0 once unsubscribed — a flat mirror of
  /// query(q).active/max_windows, so the per-signature expiry check in the
  /// hot test loop reads a packed int array instead of the records.
  const int* window_caps() const { return query_window_cap_.data(); }

  /// The largest active query's cap ⌈λL/w⌉ (1 with no active query).
  int global_max_windows() const { return global_max_windows_; }

  /// The Hash-Query index, or null before it is first built (and always
  /// without use_index).
  const index::HashQueryIndex* index() const {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// The index, mutable — exists only so tests can corrupt it and assert
  /// that ValidateState() reports it. Library code must not call this.
  index::HashQueryIndex* mutable_index_for_test() {
    return index_.has_value() ? &*index_ : nullptr;
  }

  /// Checks the query table: the packed caps mirror the records, removed
  /// queries hold no sketch, and the Hash-Query index holds each active
  /// ordinal exactly once per row r, at value `sketch.mins[r]`, and no
  /// removed ordinal. Returns the first violation.
  Status ValidateState() const;

 private:
  /// Rebuilds the Hash-Query index from the active queries.
  Status RebuildIndex();

  DetectorConfig config_;
  std::vector<QueryRec> queries_;
  std::vector<int> query_window_cap_;
  /// id → ordinal of the *active* record with that id (ids of removed
  /// queries are erased; re-adding an id maps it to its new ordinal).
  std::unordered_map<int, int> id_to_ordinal_;
  std::optional<index::HashQueryIndex> index_;
  bool index_dirty_ = false;
  int global_max_windows_ = 1;
};

}  // namespace vcd::core
