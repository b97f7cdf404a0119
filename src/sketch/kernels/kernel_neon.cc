// NEON (AArch64) kernel backend stub: the generic code compiled for
// AArch64, where Advanced SIMD is baseline — GCC/Clang autovectorize the
// word loops to 128-bit NEON and lower std::popcount to CNT+ADDV. No
// hand-written intrinsics yet; this TU exists so the dispatch table has a
// named level to grow into on ARM and so x86 never even compiles it in.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

namespace vcd::sketch::kernels {

#if defined(__aarch64__)

namespace neon_impl {
#define VCD_KERNEL_PREFETCH 1
#include "sketch/kernels/kernel_generic.inl"
#undef VCD_KERNEL_PREFETCH
}  // namespace neon_impl

const KernelOps* GetNeonOps() {
  static constexpr KernelOps kOps = {
      Isa::kNeon,
      "neon",
      &neon_impl::SigOrRange,
      &neon_impl::SigNumEqualBatch,
      &neon_impl::SigBuild,
      &neon_impl::SketchCombineMin,
      &neon_impl::SketchNumEqual,
  };
  return &kOps;
}

#else

const KernelOps* GetNeonOps() { return nullptr; }

#endif

}  // namespace vcd::sketch::kernels
