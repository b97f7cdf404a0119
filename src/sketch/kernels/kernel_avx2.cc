// AVX2 kernel backend: evaluates 4 signature slots per vector pass.
//
// Each group of 4 handles is classified first: when it is a consecutive
// half-block run (lanes 0-3 or 4-7 of one block, ascending or descending —
// the steady-state case, since candidates allocate their signatures as
// consecutive free-list runs), the same word of all 4 slots is one aligned
// 32-byte half cache line and the kernel uses direct 256-bit loads.
// Irregular groups gather the same word of 4 slots into one ymm with
// VPGATHERQQ. Popcounts use the classic PSHUFB nibble-LUT + VPSADBW
// reduction (AVX2 has no vector popcount).
//
// sig_build compares 32 ranks per signature word with eight 4-lane compare
// pairs. AVX2 compares 64-bit lanes as signed only, and min-hash values
// use all 64 bits, so both operands get their sign bit flipped first,
// which maps unsigned order onto signed order: c > q gives "not ≤", q > c
// gives "<", each read out with MOVMSKPD. The two 32-bit masks are
// interleaved onto the word's even and odd bits; a K that is not a
// multiple of 32 leaves its last word to the generic per-rank loop. The
// sketch ops use the generic code, which this TU compiles with -mavx2
// -mpopcnt: hardware popcount plus 256-bit autovectorization.
//
// Results are bit-identical to the scalar reference: popcounts, masks and
// compares are exact, and accumulation order per slot is the same
// word-major walk.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__POPCNT__)
#include <immintrin.h>
#endif

namespace vcd::sketch::kernels {

#if defined(__x86_64__) && defined(__AVX2__) && defined(__POPCNT__)

namespace avx2_impl {
#define VCD_KERNEL_PREFETCH 1
#include "sketch/kernels/kernel_generic.inl"
#undef VCD_KERNEL_PREFETCH

namespace {

// Per-64-bit-lane popcount of a ymm: PSHUFB nibble LUT, then PSADBW folds
// the 8 byte counts of each qword into that qword's low 16 bits.
inline __m256i PopCount64x4(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

// Slab element indices of word 0 of 4 slots, as a gather index vector.
inline __m256i SlotBases4(size_t stride, const uint32_t* hs) {
  return _mm256_set_epi64x(
      static_cast<long long>(WordIndex(stride, hs[3], 0)),
      static_cast<long long>(WordIndex(stride, hs[2], 0)),
      static_cast<long long>(WordIndex(stride, hs[1], 0)),
      static_cast<long long>(WordIndex(stride, hs[0], 0)));
}

// Classifies 4 handles as one aligned half block (lanes 0-3 or 4-7):
// +1 ascending (hs[0] on lane 0 or 4), -1 descending (hs[0] on lane 3 or
// 7), else 0. The half-block case makes the 4 same-index words of the
// group one aligned 32-byte load.
inline int HalfRunDirection(const uint32_t* hs) {
  const uint32_t h0 = hs[0];
  if ((h0 & 3u) == 0u) {
    for (int j = 1; j < 4; ++j) {
      if (hs[j] != h0 + static_cast<uint32_t>(j)) return 0;
    }
    return 1;
  }
  if ((h0 & 3u) == 3u) {
    for (int j = 1; j < 4; ++j) {
      if (hs[j] != h0 - static_cast<uint32_t>(j)) return 0;
    }
    return -1;
  }
  return 0;
}

// Reverses the 4 qword lanes (lane l <- lane 3-l).
inline __m256i Reverse4(__m256i v) {
  return _mm256_permute4x64_epi64(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Word-0 row of the half block holding a run group (32-byte aligned).
inline const uint64_t* HalfRunRow(const uint64_t* slab, size_t stride,
                                  const uint32_t* hs, int dir) {
  const uint32_t low = dir > 0 ? hs[0] : hs[3];
  return slab + WordIndex(stride, low, 0);
}

}  // namespace

void SigOrRangeAvx2(uint64_t* slab, size_t stride, const uint32_t* dst,
                    const uint32_t* src, size_t n, int* num_less_out) {
  const __m256i odd_mask =
      _mm256_set1_epi64x(static_cast<long long>(0xAAAAAAAAAAAAAAAAULL));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 4 < n) {
      __builtin_prefetch(slab + WordIndex(stride, dst[i + 4], 0), 1);
      __builtin_prefetch(slab + WordIndex(stride, src[i + 4], 0), 0);
    }
    const int ddir = HalfRunDirection(dst + i);
    const int sdir = ddir != 0 ? HalfRunDirection(src + i) : 0;
    if (ddir == 0 || sdir == 0) {
      // Irregular group: the scalar fused OR (this TU still has hardware
      // popcount) — gathers buy nothing without a scatter to pair them.
      SigOrRange(slab, stride, dst + i, src + i, 4,
                 num_less_out != nullptr ? num_less_out + i : nullptr);
      continue;
    }
    uint64_t* drow =
        const_cast<uint64_t*>(HalfRunRow(slab, stride, dst + i, ddir));
    const uint64_t* srow = HalfRunRow(slab, stride, src + i, sdir);
    __m256i odd = _mm256_setzero_si256();
    for (size_t w = 0; w < stride; ++w, drow += kLanes, srow += kLanes) {
      const __m256i d =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(drow));
      __m256i s = _mm256_load_si256(reinterpret_cast<const __m256i*>(srow));
      if (sdir != ddir) s = Reverse4(s);
      const __m256i v = _mm256_or_si256(d, s);
      _mm256_store_si256(reinterpret_cast<__m256i*>(drow), v);
      if (num_less_out != nullptr) {
        odd = _mm256_add_epi64(odd,
                               PopCount64x4(_mm256_and_si256(v, odd_mask)));
      }
    }
    if (num_less_out != nullptr) {
      if (ddir < 0) odd = Reverse4(odd);
      alignas(32) int64_t o[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(o), odd);
      for (int j = 0; j < 4; ++j) num_less_out[i + j] = static_cast<int>(o[j]);
    }
  }
  if (i < n) {
    SigOrRange(slab, stride, dst + i, src + i, n - i,
               num_less_out != nullptr ? num_less_out + i : nullptr);
  }
}

void SigNumEqualBatchAvx2(const uint64_t* slab, size_t stride,
                          const uint32_t* hs, size_t n, int* num_equal) {
  const __m256i odd_mask =
      _mm256_set1_epi64x(static_cast<long long>(0xAAAAAAAAAAAAAAAAULL));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 8 < n) {
      __builtin_prefetch(slab + WordIndex(stride, hs[i + 8], 0), 0);
    }
    __m256i total = _mm256_setzero_si256();
    __m256i odd = _mm256_setzero_si256();
    const int dir = HalfRunDirection(hs + i);
    if (dir != 0) {
      const uint64_t* row = HalfRunRow(slab, stride, hs + i, dir);
      for (size_t w = 0; w < stride; ++w, row += kLanes) {
        const __m256i v =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(row));
        total = _mm256_add_epi64(total, PopCount64x4(v));
        odd = _mm256_add_epi64(odd,
                               PopCount64x4(_mm256_and_si256(v, odd_mask)));
      }
      if (dir < 0) {
        total = Reverse4(total);
        odd = Reverse4(odd);
      }
    } else {
      const __m256i base = SlotBases4(stride, hs + i);
      for (size_t w = 0; w < stride; ++w) {
        const __m256i idx = _mm256_add_epi64(
            base, _mm256_set1_epi64x(static_cast<long long>(w * kLanes)));
        const __m256i v = _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(slab), idx, 8);
        total = _mm256_add_epi64(total, PopCount64x4(v));
        odd = _mm256_add_epi64(odd,
                               PopCount64x4(_mm256_and_si256(v, odd_mask)));
      }
    }
    alignas(32) int64_t t[4], o[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), total);
    _mm256_store_si256(reinterpret_cast<__m256i*>(o), odd);
    for (int j = 0; j < 4; ++j) {
      num_equal[i + j] = static_cast<int>(t[j] - 2 * o[j]);
    }
  }
  if (i < n) SigNumEqualBatch(slab, stride, hs + i, n - i, num_equal + i);
}

void SigBuildAvx2(uint64_t* slot, const uint64_t* cand, const uint64_t* query,
                  int k) {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const size_t full = static_cast<size_t>(k) / 32;
  for (size_t w = 0; w < full; ++w) {
    const uint64_t* c = cand + w * 32;
    const uint64_t* q = query + w * 32;
    uint32_t gt = 0, lt = 0;
    for (int j = 0; j < 8; ++j) {
      const __m256i cv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + 4 * j)),
          sign);
      const __m256i qv = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + 4 * j)),
          sign);
      gt |= static_cast<uint32_t>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(cv, qv))))
            << (4 * j);
      lt |= static_cast<uint32_t>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(qv, cv))))
            << (4 * j);
    }
    slot[w * kLanes] = InterleaveSigWord(~gt, lt);
  }
  const int done = static_cast<int>(full * 32);
  if (done < k) {
    SigBuild(slot + full * kLanes, cand + done, query + done, k - done);
  }
}

}  // namespace avx2_impl

const KernelOps* GetAvx2Ops() {
  static constexpr KernelOps kOps = {
      Isa::kAvx2,
      "avx2",
      &avx2_impl::SigOrRangeAvx2,
      &avx2_impl::SigNumEqualBatchAvx2,
      &avx2_impl::SigBuildAvx2,
      &avx2_impl::SketchCombineMin,
      &avx2_impl::SketchNumEqual,
  };
  return &kOps;
}

#else

const KernelOps* GetAvx2Ops() { return nullptr; }

#endif

}  // namespace vcd::sketch::kernels
