#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file kernels.h
/// Runtime-dispatched SIMD kernels for the per-window probe path
/// (DESIGN.md §15).
///
/// Every hot batch operation of `SignaturePool` / `SketchPool` is a function
/// pointer in a `KernelOps` vtable. One implementation TU exists per ISA
/// level (scalar / popcnt / AVX2 / AVX-512, NEON on AArch64); the dispatcher
/// picks the widest level the CPU supports once at startup via CPUID
/// (`__builtin_cpu_supports`). The choice can be forced with the
/// `VCD_KERNEL_ISA` environment variable or `ForceIsa` (`vcdctl --kernel`).
/// The scalar level is the property-tested reference: every other level must
/// produce byte-identical slab contents and identical counts
/// (tests/sketch/kernel_equivalence_test.cc).
///
/// ## Signature slab layout (lane-blocked SoA)
///
/// Signature slots are grouped into blocks of `kLanes` (8) slots. Within a
/// block the slab stores word 0 of all 8 lanes, then word 1 of all 8 lanes,
/// …: the w-th words of slots 8b..8b+7 form one contiguous, 64-byte-aligned
/// cache line. `WordIndex` maps (handle, word) to a slab element. A vector
/// kernel that walks 8 clustered handles therefore touches `stride` full
/// cache lines per pass instead of gathering from 8 scattered slots, and a
/// scalar kernel still sees a fixed stride of 8 words between consecutive
/// words of one slot.
///
/// Sketch slots stay contiguous (AoS): every sketch op is per-slot over all
/// K words, so interleaving lanes would spread one combine over K cache
/// lines. The sketch slab is still 64-byte aligned for full-width loads.

namespace vcd::sketch::kernels {

/// Signature slots per SoA block; the w-th words of one block's lanes fill
/// exactly one 64-byte cache line.
inline constexpr size_t kLanes = 8;

/// Slab element index of word \p w of signature slot \p h at \p stride
/// words per signature.
inline constexpr size_t WordIndex(size_t stride, uint32_t h, size_t w) {
  return ((size_t{h >> 3} * stride) + w) * kLanes + (h & 7u);
}

/// \brief Classifies kLanes handles as one full lane block.
///
/// Returns +1 when hs[0..7] ascend through exactly one block's lanes
/// (hs[j] = hs[0]+j, hs[0] on lane 0), -1 when they descend through one
/// (hs[j] = hs[0]-j, hs[0] on lane 7), else 0. The detector's candidates
/// allocate their signatures as consecutive runs off the LIFO free-list
/// (alternating direction per slot generation), so at steady state nearly
/// every batch group is ±1 — and the vector kernels can then replace
/// per-lane gathers with one full-width aligned load of the block's word
/// row. Any direction works for correctness; 0 falls back to gather.
inline int LaneRunDirection(const uint32_t* hs) {
  const uint32_t h0 = hs[0];
  if ((h0 & 7u) == 0u) {
    for (size_t j = 1; j < kLanes; ++j) {
      if (hs[j] != h0 + j) return 0;
    }
    return 1;
  }
  if ((h0 & 7u) == 7u) {
    for (size_t j = 1; j < kLanes; ++j) {
      if (hs[j] != h0 - j) return 0;
    }
    return -1;
  }
  return 0;
}

/// Kernel ISA levels, narrowest first. Order is the dispatch preference.
enum class Isa : int {
  kScalar = 0,  ///< baseline C++, no ISA assumptions — the reference
  kPopcnt = 1,  ///< x86-64 + POPCNT (hardware popcount)
  kAvx2 = 2,    ///< AVX2 + POPCNT: 4 slots per vector pass
  kAvx512 = 3,  ///< AVX-512 F/BW/VL/DQ/VPOPCNTDQ: 8 slots per vector pass
  kNeon = 4,    ///< AArch64 Advanced SIMD (autovectorized generic code)
};
inline constexpr int kNumIsa = 5;

/// \brief Vtable of the slab kernels for one ISA level.
///
/// Signature ops address the lane-blocked slab through `WordIndex`; `slot`
/// pointers are `slab + WordIndex(stride, h, 0)` with consecutive words 8
/// elements apart. Handles inside one batch must be distinct live slots
/// (the AVX-512 or-range scatter requires distinct destinations).
struct KernelOps {
  Isa isa;
  const char* name;

  /// ORs slot src[i] into slot dst[i] for i in [0, n). When
  /// \p num_less_out is non-null it also receives NumLess (count of odd
  /// bits) of each combined dst[i], fused into the OR pass.
  void (*sig_or_range)(uint64_t* slab, size_t stride, const uint32_t* dst,
                       const uint32_t* src, size_t n, int* num_less_out);

  /// NumEqual of n slots in one pass.
  void (*sig_num_equal_batch)(const uint64_t* slab, size_t stride,
                              const uint32_t* hs, size_t n, int* num_equal);

  /// Fills a freshly zeroed slot with the signature of \p cand against
  /// \p query (k min-hash values each). \p slot is the lane-strided slot
  /// base: word w lives at slot[w * kLanes].
  void (*sig_build)(uint64_t* slot, const uint64_t* cand,
                    const uint64_t* query, int k);

  /// Element-wise minimum of n contiguous words: dst[i] = min(dst, src).
  void (*sketch_combine_min)(uint64_t* dst, const uint64_t* src, size_t n);

  /// Count of equal positions between two contiguous n-word arrays.
  int (*sketch_num_equal)(const uint64_t* a, const uint64_t* b, size_t n);
};

/// Lower-case name of \p isa ("scalar", "popcnt", "avx2", "avx512", "neon").
const char* IsaName(Isa isa);

/// Parses an ISA name (as printed by IsaName). Returns false on unknown.
bool ParseIsa(std::string_view name, Isa* out);

/// True when the backend for \p isa was compiled into this binary.
bool IsaCompiled(Isa isa);

/// True when \p isa is compiled in AND the running CPU executes it.
bool IsaSupported(Isa isa);

/// Every supported level, narrowest first (always contains kScalar).
std::vector<Isa> SupportedIsas();

/// The widest supported level.
Isa BestSupportedIsa();

/// Ops table for \p isa, or nullptr when unsupported on this CPU/build.
const KernelOps* OpsForIsa(Isa isa);

/// \brief The process-wide active kernel table.
///
/// First call resolves it: `VCD_KERNEL_ISA` (if set, the named level —
/// VCD_CHECK-fails on an unknown or unsupported name so a forced CI matrix
/// leg can never silently fall back), else the widest CPUID-supported
/// level. Pools capture the table at construction; `ForceIsa` only affects
/// pools built afterwards.
const KernelOps& ActiveOps();

/// Forces the active table to the named level. Unlike the env path this
/// reports failure as a Status (InvalidArgument for an unknown name,
/// FailedPrecondition when the CPU/build lacks the level) so callers like
/// `vcdctl --kernel` can reject bad flags with usage instead of aborting.
Status ForceIsa(std::string_view name);

/// \brief Process-global per-kernel call counters (relaxed atomics).
///
/// Incremented by the pool wrappers, exported to the obs registry by
/// `obs::SyncKernelMetrics`, and recorded in BENCH_hotpath.json so a bench
/// artifact always says which backend ran and how hard each kernel was hit.
struct KernelCounters {
  std::atomic<uint64_t> or_range_calls{0};
  std::atomic<uint64_t> or_range_pairs{0};
  std::atomic<uint64_t> num_equal_batch_calls{0};
  std::atomic<uint64_t> num_equal_batch_sigs{0};
  std::atomic<uint64_t> build_calls{0};
  std::atomic<uint64_t> combine_min_calls{0};
  std::atomic<uint64_t> sketch_num_equal_calls{0};
};

/// The global counter block.
KernelCounters& Counters();

// Internal: per-TU ops accessors (null when not compiled for this target).
const KernelOps* GetScalarOps();
const KernelOps* GetPopcntOps();
const KernelOps* GetAvx2Ops();
const KernelOps* GetAvx512Ops();
const KernelOps* GetNeonOps();

}  // namespace vcd::sketch::kernels
