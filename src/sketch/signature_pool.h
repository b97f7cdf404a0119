#pragma once

#include <cstdint>
#include <vector>

#include "sketch/bit_signature.h"
#include "sketch/kernels/kernels.h"
#include "sketch/minhash.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

/// \file signature_pool.h
/// Flat arena storage for 2K-bit signatures (paper §V-A) plus batched
/// slab kernels.
///
/// The per-object `BitSignature` owns a heap `std::vector<uint64_t>`, so a
/// candidate set of S signatures costs S small allocations, S pointer
/// dereferences per kernel, and malloc traffic on every candidate birth and
/// expiry. `SignaturePool` instead stores every signature of one combination
/// structure in a single 64-byte-aligned `uint64_t` slab. Callers hold
/// 32-bit slot handles:
///
///  - handles are slot *indices*, so slab growth (which may move the
///    backing memory) and slot reuse never invalidate a live handle;
///  - `Free` pushes the slot onto a free-list and never shrinks or
///    compacts the slab, so candidate expiry is O(1) and allocation-free;
///  - the batch kernels (`OrRange`, `NumEqualBatch`, `BuildFromSketches`)
///    dispatch through a `kernels::KernelOps` table —
///    the widest SIMD level the CPU supports, chosen once at startup
///    (DESIGN.md §15) — and evaluate 4–8 slots per vector pass.
///
/// ## Slab layout
///
/// Slots are lane-blocked SoA (kernels.h): groups of `kernels::kLanes` (8)
/// slots interleave word-major, so the w-th words of one block's slots form
/// a single 64-byte cache line. Word w of slot h lives at slab element
/// `kernels::WordIndex(stride, h, w)`; within one slot consecutive words
/// are 8 elements apart, so use `word(h, w)` — a slot's words are NOT
/// contiguous.
///
/// Bit layout per slot is identical to `BitSignature`: bit 2r means
/// "cand ≤ query" and bit 2r+1 means "cand < query" for hash position r.
/// Bits at positions ≥ 2K inside the last word are kept zero as an
/// invariant (slots are zeroed on Allocate and only valid positions are
/// ever set), so the kernels need no tail masking.

namespace vcd::sketch {

/// \brief Arena of fixed-stride 2K-bit signatures with a free-list and
/// SIMD-dispatched batch kernels.
class SignaturePool {
 public:
  /// A slot index. Stable for the lifetime of the allocation.
  using Handle = uint32_t;
  static constexpr Handle kInvalidHandle = UINT32_MAX;

  /// Creates an empty pool for signatures of \p k hash functions (k ≥ 1).
  /// \p ops overrides the kernel backend (tests, vcdctl --kernel takes
  /// effect via the process-wide default when null).
  explicit SignaturePool(int k, const kernels::KernelOps* ops = nullptr);

  /// Number of hash functions K.
  int K() const { return k_; }
  /// Slab stride: 64-bit words per signature slot.
  size_t words_per_sig() const { return stride_; }
  /// The kernel backend this pool dispatches to.
  const kernels::KernelOps& ops() const { return *ops_; }
  /// Total slots ever created (live + free).
  size_t capacity() const { return live_.size(); }
  /// Currently allocated slots.
  size_t live_count() const { return live_count_; }
  /// True if \p h names a currently allocated slot.
  bool IsLive(Handle h) const {
    return h < live_.size() && live_[h] != 0;
  }

  /// Allocates a zeroed slot — the all-">" signature. Reuses a freed slot
  /// when one exists; otherwise grows the slab (handles stay valid).
  Handle Allocate();

  /// Returns \p h to the free-list. The slab never shrinks, so other live
  /// handles are unaffected.
  void Free(Handle h);

  /// Word \p w of slot \p h. Words of one slot are 8 slab elements apart
  /// (lane-blocked layout) — there is deliberately no contiguous
  /// `words(h)` accessor.
  uint64_t& word(Handle h, size_t w) {
    return slab_.data()[kernels::WordIndex(stride_, h, w)];
  }
  /// \copydoc word
  uint64_t word(Handle h, size_t w) const {
    return slab_.data()[kernels::WordIndex(stride_, h, w)];
  }

  // --- per-slot scalar ops (mirror BitSignature) -------------------------

  /// Sets the relation pair at hash position \p r from raw min-hash values.
  void SetRelation(Handle h, int r, uint64_t cand_value, uint64_t query_value) {
    const uint64_t pair = static_cast<uint64_t>(cand_value <= query_value) |
                          (static_cast<uint64_t>(cand_value < query_value) << 1);
    word(h, static_cast<size_t>(2 * r) >> 6) |=
        pair << (static_cast<size_t>(2 * r) & 63);
  }

  /// Fills slot \p h with the signature of \p cand against \p query
  /// (BitSignature::FromSketches without the heap object). The slot must be
  /// freshly allocated (all zero).
  void BuildFromSketches(Handle h, const Sketch& cand, const Sketch& query);
  /// \copybrief BuildFromSketches, from the K min values at \p cand (a
  /// SketchPool slot's).
  void BuildFromSketches(Handle h, const uint64_t* cand, const Sketch& query);

  /// OR-combines live slot \p src into live slot \p dst (§V-A merge).
  void Or(Handle dst, Handle src) {
    for (size_t w = 0; w < stride_; ++w) word(dst, w) |= word(src, w);
  }

  /// Number of "=" positions of slot \p h (Lemma 1 numerator).
  int NumEqual(Handle h) const;
  /// Number of "<" positions of slot \p h (the N_s of Lemma 2).
  int NumLess(Handle h) const;
  /// Lemma 1 similarity of slot \p h.
  double Similarity(Handle h) const {
    return k_ > 0 ? static_cast<double>(NumEqual(h)) / k_ : 0.0;
  }

  /// Materializes slot \p h as a scalar BitSignature (reference/debug path;
  /// copies the raw words bit-faithfully, including any corruption, so
  /// BitSignature::Validate can vet pool contents).
  BitSignature ToBitSignature(Handle h) const;

  // --- batch kernels ------------------------------------------------------

  /// ORs `src[i]` into `dst[i]` for i in [0, n) through the SIMD backend.
  /// Handles inside the batch must name distinct dst slots. When
  /// \p num_less_out is non-null it receives NumLess of each combined
  /// `dst[i]`, computed from the words already in registers — fusing the
  /// Lemma-2 merge scan into the OR pass instead of re-reading the slab.
  void OrRange(const Handle* dst, const Handle* src, size_t n,
               int* num_less_out = nullptr);

  /// Computes NumEqual of n slots in one pass into \p num_equal (n ints).
  void NumEqualBatch(const Handle* hs, size_t n, int* num_equal) const;

  /// \brief Structural invariant check (debug validator).
  ///
  /// Verifies the 64-byte slab alignment invariant, slab sizing in whole
  /// lane blocks, free-list/live-flag consistency (every free handle in
  /// range, flagged free, listed exactly once; live count = capacity − free
  /// count) and, for every live slot, the BitSignature well-formedness
  /// conditions: no impossible (even=0, odd=1) relation pair and all tail
  /// bits beyond 2K zero. Returns the first violation.
  Status Validate() const;

 private:
  int k_;
  size_t stride_;
  const kernels::KernelOps* ops_;
  util::AlignedWordBuf slab_;
  std::vector<Handle> free_;
  std::vector<uint8_t> live_;  ///< per-slot allocation flag
  size_t live_count_ = 0;
};

}  // namespace vcd::sketch
