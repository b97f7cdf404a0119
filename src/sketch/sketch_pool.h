#pragma once

#include <cstdint>
#include <vector>

#include "sketch/kernels/kernels.h"
#include "sketch/minhash.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

/// \file sketch_pool.h
/// Flat arena storage for K-min-hash `mins` arrays (paper §IV), the
/// raw-sketch counterpart of `SignaturePool`.
///
/// Each slot is one candidate sketch: K contiguous `uint64_t` min values at
/// a fixed stride inside a single 64-byte-aligned slab. Handles are slot
/// indices, so slab growth and slot reuse never invalidate live handles,
/// and the free-list makes candidate expiry allocation-free. The combine
/// kernel is the element-wise minimum of Property 1, dispatched through the
/// SIMD backend (DESIGN.md §15).
///
/// Unlike the signature slab, sketch slots stay contiguous (AoS): every
/// sketch op touches all K words of one slot, so lane-blocking would
/// spread a single combine over K cache lines instead of K/8.

namespace vcd::sketch {

/// \brief Arena of fixed-stride min-hash sketches with a free-list.
class SketchPool {
 public:
  /// A slot index. Stable for the lifetime of the allocation.
  using Handle = uint32_t;
  static constexpr Handle kInvalidHandle = UINT32_MAX;

  /// Creates an empty pool for sketches of \p k hash functions (k ≥ 1).
  /// \p ops overrides the kernel backend (process-wide default when null).
  explicit SketchPool(int k, const kernels::KernelOps* ops = nullptr);

  /// Number of hash functions K.
  int K() const { return k_; }
  /// The kernel backend this pool dispatches to.
  const kernels::KernelOps& ops() const { return *ops_; }
  /// Total slots ever created (live + free).
  size_t capacity() const { return live_.size(); }
  /// Currently allocated slots.
  size_t live_count() const { return live_count_; }
  /// True if \p h names a currently allocated slot.
  bool IsLive(Handle h) const { return h < live_.size() && live_[h] != 0; }

  /// Allocates a slot initialized to the empty sketch (all positions +inf).
  Handle Allocate();

  /// Returns \p h to the free-list; other live handles are unaffected.
  void Free(Handle h);

  /// Slot min-value access (K words).
  uint64_t* mins(Handle h) { return slab_.data() + size_t{h} * stride_; }
  /// \copydoc mins
  const uint64_t* mins(Handle h) const {
    return slab_.data() + size_t{h} * stride_;
  }

  /// Copies scalar sketch \p sk (same K) into slot \p h.
  void Assign(Handle h, const Sketch& sk);

  /// Element-wise minimum of \p src into \p dst (Property 1 combine) —
  /// one contiguous pass through the SIMD backend.
  void CombineMin(Handle dst, Handle src) {
    kernels::Counters().combine_min_calls.fetch_add(1,
                                                    std::memory_order_relaxed);
    ops_->sketch_combine_min(mins(dst), mins(src), stride_);
  }

  /// Number of positions where slot \p h equals scalar sketch \p query
  /// (Definition 2 numerator).
  int NumEqualAgainst(Handle h, const Sketch& query) const;

  /// Definition 2 similarity of slot \p h against \p query.
  double SimilarityAgainst(Handle h, const Sketch& query) const {
    return k_ > 0 ? static_cast<double>(NumEqualAgainst(h, query)) / k_ : 0.0;
  }

  /// Materializes slot \p h as a scalar Sketch (reference/debug path).
  Sketch ToSketch(Handle h) const;

  /// \brief Structural invariant check: 64-byte slab alignment, free-list
  /// handles in range, flagged free and listed exactly once; every freed
  /// slot reachable from the free-list; live count consistent.
  Status Validate() const;

 private:
  int k_;
  size_t stride_;
  const kernels::KernelOps* ops_;
  util::AlignedWordBuf slab_;
  std::vector<Handle> free_;
  std::vector<uint8_t> live_;
  size_t live_count_ = 0;
};

}  // namespace vcd::sketch
