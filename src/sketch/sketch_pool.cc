#include "sketch/sketch_pool.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/logging.h"

namespace vcd::sketch {

SketchPool::SketchPool(int k, const kernels::KernelOps* ops)
    : k_(k),
      stride_(static_cast<size_t>(k)),
      ops_(ops != nullptr ? ops : &kernels::ActiveOps()) {
  VCD_CHECK(k >= 1, "SketchPool needs K >= 1");
}

SketchPool::Handle SketchPool::Allocate() {
  Handle h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
  } else {
    h = static_cast<Handle>(live_.size());
    slab_.resize(slab_.size() + stride_);
    live_.push_back(0);
  }
  std::fill_n(mins(h), stride_, std::numeric_limits<uint64_t>::max());
  live_[h] = 1;
  ++live_count_;
  return h;
}

void SketchPool::Free(Handle h) {
  VCD_DCHECK(IsLive(h), "SketchPool::Free of a non-live handle");
  live_[h] = 0;
  --live_count_;
  free_.push_back(h);
}

void SketchPool::Assign(Handle h, const Sketch& sk) {
  VCD_DCHECK(sk.K() == k_, "sketch K mismatch");
  std::copy_n(sk.mins.data(), stride_, mins(h));
}

int SketchPool::NumEqualAgainst(Handle h, const Sketch& query) const {
  VCD_DCHECK(query.K() == k_, "sketch K mismatch");
  kernels::Counters().sketch_num_equal_calls.fetch_add(
      1, std::memory_order_relaxed);
  return ops_->sketch_num_equal(mins(h), query.mins.data(), stride_);
}

Sketch SketchPool::ToSketch(Handle h) const {
  Sketch sk;
  sk.mins.assign(mins(h), mins(h) + stride_);
  return sk;
}

Status SketchPool::Validate() const {
  if (reinterpret_cast<uintptr_t>(slab_.data()) %
          util::AlignedWordBuf::kAlignBytes !=
      0) {
    return Status::Internal("SketchPool: slab not 64-byte aligned");
  }
  if (slab_.size() != live_.size() * stride_) {
    return Status::Internal("SketchPool: slab size != capacity * stride");
  }
  std::vector<uint8_t> on_free_list(live_.size(), 0);
  for (Handle h : free_) {
    if (h >= live_.size()) {
      return Status::Internal("SketchPool: free-list handle out of range");
    }
    if (live_[h] != 0) {
      return Status::Internal("SketchPool: free-list handle flagged live");
    }
    if (on_free_list[h] != 0) {
      return Status::Internal("SketchPool: handle on free-list twice");
    }
    on_free_list[h] = 1;
  }
  size_t live_seen = 0;
  for (size_t h = 0; h < live_.size(); ++h) {
    if (live_[h] != 0) {
      ++live_seen;
    } else if (on_free_list[h] == 0) {
      return Status::Internal("SketchPool: freed slot missing from free-list");
    }
  }
  if (live_seen != live_count_) {
    return Status::Internal("SketchPool: live_count out of sync");
  }
  return Status::OK();
}

}  // namespace vcd::sketch
