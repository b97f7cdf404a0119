// AVX-512 kernel backend: evaluates 8 signature slots per vector pass.
//
// Needs F (512-bit gathers), BW/VL/DQ (mask ops, 64-bit lane compares) and
// VPOPCNTDQ (native per-qword popcount, no LUT dance). Each batch group of
// 8 handles is first classified with LaneRunDirection: when the handles
// are one full lane block (the steady-state case — candidates allocate
// their signatures as consecutive free-list runs), the same word of all 8
// slots is ONE aligned cache line and the kernel uses direct 512-bit
// loads/stores; otherwise it falls back to VPGATHERQQ/VPSCATTERQQ over
// per-lane indices. Descending runs just reverse the per-lane outputs.
// The fused or_range ORs both operand rows, writes the result back
// (destinations inside a batch must be distinct slots — the pool
// guarantees it) and accumulates the Lemma-2 odd-bit popcount in the same
// pass.
//
// sig_build compares 32 ranks per signature word with four 8-lane unsigned
// compare pairs (≤ and <, straight into mask registers) and interleaves
// the two 32-bit masks onto the word's even and odd bits; a K that is not
// a multiple of 32 leaves its last word to the generic per-rank loop. The
// sketch ops use the generic code, which this TU compiles with the flags
// above.
//
// Results are bit-identical to the scalar reference: exact popcounts,
// identical per-slot accumulation, exact compares.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512DQ__) &&                       \
    defined(__AVX512VPOPCNTDQ__) && defined(__POPCNT__)
#define VCD_HAVE_AVX512_KERNELS 1
// GCC's unmasked AVX-512 intrinsics self-initialize an undefined __Y
// (PR105593), tripping -Wmaybe-uninitialized at every inline site under -O.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#endif

namespace vcd::sketch::kernels {

#if defined(VCD_HAVE_AVX512_KERNELS)

namespace avx512_impl {
#define VCD_KERNEL_PREFETCH 1
#include "sketch/kernels/kernel_generic.inl"
#undef VCD_KERNEL_PREFETCH

namespace {

inline __m512i OddMask512() {
  return _mm512_set1_epi64(static_cast<long long>(0xAAAAAAAAAAAAAAAAULL));
}

// Slab element indices of word 0 of 8 slots: widen the 8 u32 handles and
// apply WordIndex vectorially: (h>>3)*stride*8 + (h&7).
inline __m512i SlotBases8(size_t stride, const uint32_t* hs) {
  const __m512i h = _mm512_cvtepu32_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hs)));
  const __m512i block = _mm512_srli_epi64(h, 3);
  const __m512i lane = _mm512_and_epi64(h, _mm512_set1_epi64(7));
  return _mm512_add_epi64(
      _mm512_mullo_epi64(block,
                         _mm512_set1_epi64(static_cast<long long>(
                             stride * kLanes))),
      lane);
}

// Reverses the 8 qword lanes (lane l <- lane 7-l): maps a descending run's
// per-lane results back to handle order.
inline __m512i Reverse8(__m512i v) {
  return _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                                  v);
}

// Word-0 row of the block holding a full-run group (aligned to 64 bytes).
inline const uint64_t* RunRow(const uint64_t* slab, size_t stride,
                              const uint32_t* hs, int dir) {
  const uint32_t low = dir > 0 ? hs[0] : hs[kLanes - 1];
  return slab + size_t{low >> 3} * stride * kLanes;
}

}  // namespace

void SigOrRangeAvx512(uint64_t* slab, size_t stride, const uint32_t* dst,
                      const uint32_t* src, size_t n, int* num_less_out) {
  const __m512i odd_mask = OddMask512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (i + 8 < n) {
      __builtin_prefetch(slab + WordIndex(stride, dst[i + 8], 0), 1);
      __builtin_prefetch(slab + WordIndex(stride, src[i + 8], 0), 0);
    }
    __m512i odd = _mm512_setzero_si512();
    const int ddir = LaneRunDirection(dst + i);
    const int sdir = ddir != 0 ? LaneRunDirection(src + i) : 0;
    if (ddir != 0 && sdir != 0) {
      // Full-block runs: one aligned 512-bit load per operand row. When
      // the runs point opposite ways, reversing the src row realigns its
      // lanes with dst's (pair j sits on dst lane j or 7-j).
      uint64_t* drow = const_cast<uint64_t*>(RunRow(slab, stride, dst + i,
                                                    ddir));
      const uint64_t* srow = RunRow(slab, stride, src + i, sdir);
      for (size_t w = 0; w < stride; ++w, drow += kLanes, srow += kLanes) {
        const __m512i d = _mm512_load_si512(drow);
        __m512i s = _mm512_load_si512(srow);
        if (sdir != ddir) s = Reverse8(s);
        const __m512i v = _mm512_or_si512(d, s);
        _mm512_store_si512(drow, v);
        if (num_less_out != nullptr) {
          odd = _mm512_add_epi64(
              odd, _mm512_popcnt_epi64(_mm512_and_si512(v, odd_mask)));
        }
      }
      if (num_less_out != nullptr && ddir < 0) odd = Reverse8(odd);
    } else {
      const __m512i dbase = SlotBases8(stride, dst + i);
      const __m512i sbase = SlotBases8(stride, src + i);
      for (size_t w = 0; w < stride; ++w) {
        const __m512i off =
            _mm512_set1_epi64(static_cast<long long>(w * kLanes));
        const __m512i didx = _mm512_add_epi64(dbase, off);
        const __m512i sidx = _mm512_add_epi64(sbase, off);
        const __m512i d = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), 0xff, didx, slab, 8);
        const __m512i s = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), 0xff, sidx, slab, 8);
        const __m512i v = _mm512_or_si512(d, s);
        _mm512_i64scatter_epi64(slab, didx, v, 8);
        if (num_less_out != nullptr) {
          odd = _mm512_add_epi64(
              odd, _mm512_popcnt_epi64(_mm512_and_si512(v, odd_mask)));
        }
      }
    }
    if (num_less_out != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(num_less_out + i),
                          _mm512_cvtepi64_epi32(odd));
    }
  }
  if (i < n) {
    SigOrRange(slab, stride, dst + i, src + i, n - i,
               num_less_out != nullptr ? num_less_out + i : nullptr);
  }
}

void SigNumEqualBatchAvx512(const uint64_t* slab, size_t stride,
                            const uint32_t* hs, size_t n, int* num_equal) {
  const __m512i odd_mask = OddMask512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (i + 16 < n) {
      __builtin_prefetch(slab + WordIndex(stride, hs[i + 8], 0), 0);
      __builtin_prefetch(slab + WordIndex(stride, hs[i + 16], 0), 0);
    }
    __m512i total = _mm512_setzero_si512();
    __m512i odd = _mm512_setzero_si512();
    const int dir = LaneRunDirection(hs + i);
    if (dir != 0) {
      const uint64_t* row = RunRow(slab, stride, hs + i, dir);
      for (size_t w = 0; w < stride; ++w, row += kLanes) {
        const __m512i v = _mm512_load_si512(row);
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
        odd = _mm512_add_epi64(
            odd, _mm512_popcnt_epi64(_mm512_and_si512(v, odd_mask)));
      }
      if (dir < 0) {
        total = Reverse8(total);
        odd = Reverse8(odd);
      }
    } else {
      const __m512i base = SlotBases8(stride, hs + i);
      for (size_t w = 0; w < stride; ++w) {
        const __m512i idx = _mm512_add_epi64(
            base, _mm512_set1_epi64(static_cast<long long>(w * kLanes)));
        const __m512i v = _mm512_mask_i64gather_epi64(
            _mm512_setzero_si512(), 0xff, idx, slab, 8);
        total = _mm512_add_epi64(total, _mm512_popcnt_epi64(v));
        odd = _mm512_add_epi64(
            odd, _mm512_popcnt_epi64(_mm512_and_si512(v, odd_mask)));
      }
    }
    // NumEqual = total - 2*odd, per lane.
    const __m512i eq = _mm512_sub_epi64(total, _mm512_add_epi64(odd, odd));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(num_equal + i),
                        _mm512_cvtepi64_epi32(eq));
  }
  if (i < n) SigNumEqualBatch(slab, stride, hs + i, n - i, num_equal + i);
}

void SigBuildAvx512(uint64_t* slot, const uint64_t* cand,
                    const uint64_t* query, int k) {
  const size_t full = static_cast<size_t>(k) / 32;
  for (size_t w = 0; w < full; ++w) {
    const uint64_t* c = cand + w * 32;
    const uint64_t* q = query + w * 32;
    uint32_t le = 0, lt = 0;
    for (int j = 0; j < 4; ++j) {
      const __m512i cv = _mm512_loadu_si512(c + 8 * j);
      const __m512i qv = _mm512_loadu_si512(q + 8 * j);
      le |= static_cast<uint32_t>(_mm512_cmple_epu64_mask(cv, qv)) << (8 * j);
      lt |= static_cast<uint32_t>(_mm512_cmplt_epu64_mask(cv, qv)) << (8 * j);
    }
    slot[w * kLanes] = InterleaveSigWord(le, lt);
  }
  const int done = static_cast<int>(full * 32);
  if (done < k) {
    SigBuild(slot + full * kLanes, cand + done, query + done, k - done);
  }
}

}  // namespace avx512_impl

const KernelOps* GetAvx512Ops() {
  static constexpr KernelOps kOps = {
      Isa::kAvx512,
      "avx512",
      &avx512_impl::SigOrRangeAvx512,
      &avx512_impl::SigNumEqualBatchAvx512,
      &avx512_impl::SigBuildAvx512,
      &avx512_impl::SketchCombineMin,
      &avx512_impl::SketchNumEqual,
  };
  return &kOps;
}

#else

const KernelOps* GetAvx512Ops() { return nullptr; }

#endif

}  // namespace vcd::sketch::kernels
