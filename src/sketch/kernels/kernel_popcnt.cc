// POPCNT kernel backend: the generic code compiled with -mpopcnt, so every
// std::popcount lowers to the single hardware instruction instead of the
// ~12-op SWAR sequence of the baseline target. Replaces the former
// target_clones("default","popcnt") multiversioning — plain function-pointer
// dispatch has no ifunc resolver, so it needs no sanitizer special-casing.
//
// Only built into the table on x86-64 (the -mpopcnt flag is only added
// there); elsewhere GetPopcntOps reports "not compiled".

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

namespace vcd::sketch::kernels {

#if defined(__x86_64__) && defined(__POPCNT__)

namespace popcnt_impl {
#define VCD_KERNEL_PREFETCH 1
#include "sketch/kernels/kernel_generic.inl"
#undef VCD_KERNEL_PREFETCH
}  // namespace popcnt_impl

const KernelOps* GetPopcntOps() {
  static constexpr KernelOps kOps = {
      Isa::kPopcnt,
      "popcnt",
      &popcnt_impl::SigOrRange,
      &popcnt_impl::SigNumEqualBatch,
      &popcnt_impl::SigBuild,
      &popcnt_impl::SketchCombineMin,
      &popcnt_impl::SketchNumEqual,
  };
  return &kOps;
}

#else

const KernelOps* GetPopcntOps() { return nullptr; }

#endif

}  // namespace vcd::sketch::kernels
