#include "core/portfolio.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace vcd::core {

Status ValidateQuerySketch(const DetectorConfig& config, const sketch::Sketch& sk,
                           int length_frames, double duration_seconds) {
  if (sk.K() != config.K) {
    return Status::InvalidArgument("sketch K does not match detector config");
  }
  if (length_frames < 1) return Status::InvalidArgument("query has no frames");
  if (!(duration_seconds > 0)) {
    return Status::InvalidArgument("query duration must be positive");
  }
  return Status::OK();
}

Portfolio::Portfolio(const DetectorConfig& config) : config_(config) {}

bool Portfolio::Serves(const DetectorConfig& config) const {
  return config.K == config_.K && config.hash_seed == config_.hash_seed &&
         config.lambda == config_.lambda &&
         config.window_seconds == config_.window_seconds &&
         config.use_index == config_.use_index;
}

Status Portfolio::AddQuerySketch(int id, sketch::Sketch sk, int length_frames,
                                 double duration_seconds) {
  VCD_RETURN_IF_ERROR(ValidateQuerySketch(config_, sk, length_frames, duration_seconds));
  if (id_to_ordinal_.count(id) != 0) {
    return Status::AlreadyExists("query id " + std::to_string(id));
  }
  QueryRec rec;
  rec.id = id;
  rec.length_frames = length_frames;
  rec.duration_seconds = duration_seconds;
  rec.sketch = std::move(sk);
  rec.max_windows = std::max(
      1, static_cast<int>(std::ceil(config_.lambda * duration_seconds /
                                    config_.window_seconds)));
  if (config_.use_index && index_.has_value()) {
    VCD_RETURN_IF_ERROR(
        index_->Insert(static_cast<int>(queries_.size()), rec.sketch));
  } else {
    index_dirty_ = true;
  }
  global_max_windows_ = std::max(global_max_windows_, rec.max_windows);
  queries_.push_back(std::move(rec));
  query_window_cap_.push_back(queries_.back().max_windows);
  id_to_ordinal_[id] = static_cast<int>(queries_.size()) - 1;
  return Status::OK();
}

std::vector<std::tuple<int, int, double, sketch::Sketch>>
Portfolio::ExportQueries() const {
  std::vector<std::tuple<int, int, double, sketch::Sketch>> out;
  for (const QueryRec& q : queries_) {
    if (!q.active) continue;
    out.emplace_back(q.id, q.length_frames, q.duration_seconds, q.sketch);
  }
  return out;
}

Status Portfolio::RemoveQuery(int id) {
  auto it = id_to_ordinal_.find(id);
  if (it == id_to_ordinal_.end()) {
    return Status::NotFound("query id " + std::to_string(id));
  }
  const int ordinal = it->second;
  QueryRec& q = queries_[static_cast<size_t>(ordinal)];
  if (config_.use_index && index_.has_value()) {
    VCD_RETURN_IF_ERROR(index_->Remove(ordinal, q.sketch));
  }
  q.active = false;
  q.sketch = sketch::Sketch{};  // every reader checks `active` first
  query_window_cap_[static_cast<size_t>(ordinal)] = 0;
  id_to_ordinal_.erase(it);
  // Detectors keep their span bound: live candidates may have been built
  // under the old one (CopyDetector::span_bound_).
  global_max_windows_ = 1;
  for (const QueryRec& r : queries_) {
    if (r.active) global_max_windows_ = std::max(global_max_windows_, r.max_windows);
  }
  return Status::OK();
}

Status Portfolio::EnsureIndex() {
  return index_dirty_ ? RebuildIndex() : Status::OK();
}

Status Portfolio::RebuildIndex() {
  index_.reset();
  index_dirty_ = false;
  if (!config_.use_index) return Status::OK();
  std::vector<index::HashQueryIndex::Query> active;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (queries_[q].active) active.push_back({static_cast<int>(q), &queries_[q].sketch});
  }
  auto idx = index::HashQueryIndex::Build(config_.K, active);
  if (!idx.ok()) return idx.status();
  index_.emplace(std::move(idx).value());
  return Status::OK();
}

Status Portfolio::ValidateState() const {
  // The packed window-cap mirror must track queries_ exactly: the hot test
  // loop trusts it for both the active check and the λL expiry bound.
  if (query_window_cap_.size() != queries_.size()) {
    return Status::Internal("query_window_cap_ size out of sync with queries_");
  }
  size_t active = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const int expect = queries_[q].active ? queries_[q].max_windows : 0;
    if (query_window_cap_[q] != expect) {
      return Status::Internal("query_window_cap_[" + std::to_string(q) +
                              "] out of sync with its QueryRec");
    }
    if (queries_[q].active) {
      ++active;
    } else if (queries_[q].sketch.mins.capacity() != 0) {
      return Status::Internal("removed query ordinal " + std::to_string(q) +
                              " still holds its sketch");
    }
  }
  if (index_.has_value()) {
    // Validate() proves every row holds the same ordinals, once each; that
    // set must be exactly the active ordinals, each at its sketch's values.
    VCD_RETURN_IF_ERROR(index_->Validate());
    if (static_cast<size_t>(index_->num_queries()) != active) {
      return Status::Internal("index holds " + std::to_string(index_->num_queries()) +
                              " queries, " + std::to_string(active) + " are active");
    }
    for (int r = 0; r < index_->K(); ++r) {
      const std::vector<uint64_t>& values = index_->values(r);
      const std::vector<int32_t>& ordinals = index_->ordinals(r);
      for (size_t j = 0; j < values.size(); ++j) {
        const auto q = static_cast<size_t>(ordinals[j]);
        if (q >= queries_.size() || !queries_[q].active) {
          return Status::Internal("index row " + std::to_string(r) +
                                  " holds removed query ordinal " + std::to_string(q));
        }
        if (values[j] != queries_[q].sketch.mins[static_cast<size_t>(r)]) {
          return Status::Internal("index row " + std::to_string(r) + " holds ordinal " +
                                  std::to_string(q) + " at a value its sketch lacks");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace vcd::core
