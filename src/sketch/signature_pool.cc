#include "sketch/signature_pool.h"

#include <cstdint>
#include <string>

#include "util/bit_util.h"
#include "util/logging.h"

namespace vcd::sketch {

namespace {
constexpr uint64_t kEvenMask = 0x5555555555555555ULL;
constexpr uint64_t kOddMask = 0xAAAAAAAAAAAAAAAAULL;
using kernels::kLanes;
}  // namespace

SignaturePool::SignaturePool(int k, const kernels::KernelOps* ops)
    : k_(k),
      stride_((static_cast<size_t>(2 * k) + 63) / 64),
      ops_(ops != nullptr ? ops : &kernels::ActiveOps()) {
  VCD_CHECK(k >= 1, "SignaturePool needs K >= 1");
}

SignaturePool::Handle SignaturePool::Allocate() {
  Handle h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
    for (size_t w = 0; w < stride_; ++w) word(h, w) = 0;
  } else {
    h = static_cast<Handle>(live_.size());
    if (h % kLanes == 0) {
      // New lane block: one stride×8 chunk, zero-filled. Slots of a
      // partially used block stay zero until their first Allocate.
      slab_.resize(slab_.size() + stride_ * kLanes);
    }
    live_.push_back(0);
  }
  live_[h] = 1;
  ++live_count_;
  return h;
}

void SignaturePool::Free(Handle h) {
  VCD_DCHECK(IsLive(h), "SignaturePool::Free of a non-live handle");
  live_[h] = 0;
  --live_count_;
  free_.push_back(h);
}

void SignaturePool::BuildFromSketches(Handle h, const Sketch& cand,
                                      const Sketch& query) {
  VCD_DCHECK(cand.K() == k_, "sketch K mismatch");
  BuildFromSketches(h, cand.mins.data(), query);
}

void SignaturePool::BuildFromSketches(Handle h, const uint64_t* cand,
                                      const Sketch& query) {
  VCD_DCHECK(query.K() == k_, "sketch K mismatch");
  kernels::Counters().build_calls.fetch_add(1, std::memory_order_relaxed);
  ops_->sig_build(slab_.data() + kernels::WordIndex(stride_, h, 0), cand,
                  query.mins.data(), k_);
}

int SignaturePool::NumEqual(Handle h) const {
  int total = 0, odd = 0;
  for (size_t w = 0; w < stride_; ++w) {
    const uint64_t v = word(h, w);
    total += PopCount64(v);
    odd += PopCount64(v & kOddMask);
  }
  return total - 2 * odd;  // even - odd, with even = total - odd
}

int SignaturePool::NumLess(Handle h) const {
  int odd = 0;
  for (size_t w = 0; w < stride_; ++w) odd += PopCount64(word(h, w) & kOddMask);
  return odd;
}

BitSignature SignaturePool::ToBitSignature(Handle h) const {
  // Gather the lane-strided words into a contiguous scratch first
  // (debug/reference path; allocation is fine here).
  std::vector<uint64_t> contiguous(stride_);
  for (size_t w = 0; w < stride_; ++w) contiguous[w] = word(h, w);
  return BitSignature::FromRawWords(k_, contiguous.data(), stride_);
}

void SignaturePool::OrRange(const Handle* dst, const Handle* src, size_t n,
                            int* num_less_out) {
  auto& counters = kernels::Counters();
  counters.or_range_calls.fetch_add(1, std::memory_order_relaxed);
  counters.or_range_pairs.fetch_add(n, std::memory_order_relaxed);
  ops_->sig_or_range(slab_.data(), stride_, dst, src, n, num_less_out);
}

void SignaturePool::NumEqualBatch(const Handle* hs, size_t n,
                                  int* num_equal) const {
  auto& counters = kernels::Counters();
  counters.num_equal_batch_calls.fetch_add(1, std::memory_order_relaxed);
  counters.num_equal_batch_sigs.fetch_add(n, std::memory_order_relaxed);
  ops_->sig_num_equal_batch(slab_.data(), stride_, hs, n, num_equal);
}

Status SignaturePool::Validate() const {
  if (reinterpret_cast<uintptr_t>(slab_.data()) %
          util::AlignedWordBuf::kAlignBytes !=
      0) {
    return Status::Internal("SignaturePool: slab not 64-byte aligned");
  }
  const size_t blocks = (live_.size() + kLanes - 1) / kLanes;
  if (slab_.size() != blocks * stride_ * kLanes) {
    return Status::Internal(
        "SignaturePool: slab size != lane blocks * stride * 8");
  }
  std::vector<uint8_t> on_free_list(live_.size(), 0);
  for (Handle h : free_) {
    if (h >= live_.size()) {
      return Status::Internal("SignaturePool: free-list handle out of range");
    }
    if (live_[h] != 0) {
      return Status::Internal("SignaturePool: free-list handle flagged live");
    }
    if (on_free_list[h] != 0) {
      return Status::Internal("SignaturePool: handle on free-list twice");
    }
    on_free_list[h] = 1;
  }
  size_t live_seen = 0;
  for (size_t h = 0; h < live_.size(); ++h) {
    if (live_[h] != 0) {
      ++live_seen;
    } else if (on_free_list[h] == 0) {
      return Status::Internal("SignaturePool: freed slot missing from free-list");
    }
  }
  if (live_seen != live_count_) {
    return Status::Internal("SignaturePool: live_count out of sync");
  }
  // Per-slot well-formedness of live signatures: no (even=0, odd=1) pair,
  // tail bits beyond 2K zero.
  const size_t tail_bits = static_cast<size_t>(2 * k_) & 63;
  const uint64_t tail_mask =
      tail_bits == 0 ? ~uint64_t{0} : (uint64_t{1} << tail_bits) - 1;
  for (size_t h = 0; h < live_.size(); ++h) {
    if (live_[h] == 0) continue;
    const Handle hh = static_cast<Handle>(h);
    for (size_t w = 0; w < stride_; ++w) {
      const uint64_t v = word(hh, w);
      // Odd (2r+1) bit set while its even (2r) partner is clear.
      if (((v >> 1) & ~v & kEvenMask) != 0) {
        return Status::Internal("SignaturePool: impossible (0,1) pair in slot " +
                                std::to_string(h));
      }
    }
    if ((word(hh, stride_ - 1) & ~tail_mask) != 0) {
      return Status::Internal("SignaturePool: nonzero tail bits in slot " +
                              std::to_string(h));
    }
  }
  return Status::OK();
}

}  // namespace vcd::sketch
