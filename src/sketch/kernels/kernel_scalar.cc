// Scalar kernel backend: the portable reference every other ISA level is
// property-tested against. Compiled with no ISA flags beyond the project
// baseline, no prefetch hints — deliberately the simplest instantiation of
// the generic code.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sketch/kernels/kernels.h"

namespace vcd::sketch::kernels {
namespace scalar_impl {
#define VCD_KERNEL_PREFETCH 0
#include "sketch/kernels/kernel_generic.inl"
#undef VCD_KERNEL_PREFETCH
}  // namespace scalar_impl

const KernelOps* GetScalarOps() {
  static constexpr KernelOps kOps = {
      Isa::kScalar,
      "scalar",
      &scalar_impl::SigOrRange,
      &scalar_impl::SigNumEqualBatch,
      &scalar_impl::SigBuild,
      &scalar_impl::SketchCombineMin,
      &scalar_impl::SketchNumEqual,
  };
  return &kOps;
}

}  // namespace vcd::sketch::kernels
