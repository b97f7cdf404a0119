// Kernel-backend equivalence fuzz: every registered ISA level must produce
// byte-identical slabs and identical counts to the scalar reference, over
// randomized signatures, K values (32 fills one 32-rank signature word
// exactly, 33 spills one rank into the next; 800 is Table I's) and batch
// shapes. Signatures are built from values near 0 and again from values
// straddling 2^63.
//
// The batch shapes deliberately cover both kernel regimes: consecutive
// ascending/descending handle runs (the steady-state detector pattern that
// takes the aligned full-row fast path) and shuffled handle sets (the
// gather/scalar fallback), plus sizes around the 4/8-slot vector pass
// boundaries so every tail path runs.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sketch/kernels/kernels.h"
#include "sketch/minhash.h"
#include "sketch/signature_pool.h"
#include "sketch/sketch_pool.h"
#include "util/rng.h"

namespace vcd::sketch {
namespace {

// K values drawn from [lo, lo + span).
Sketch RandomSketch(Rng* rng, int k, uint64_t span, uint64_t lo = 0) {
  Sketch s;
  s.mins.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) s.mins.push_back(lo + rng->Uniform(span));
  return s;
}

// Handle batch in one of three shapes; `shape % 3`: 0 = ascending run,
// 1 = descending run, 2 = shuffled.
std::vector<uint32_t> MakeBatch(Rng* rng, uint32_t base, size_t n,
                                int shape) {
  std::vector<uint32_t> hs(n);
  std::iota(hs.begin(), hs.end(), base);
  if (shape % 3 == 1) {
    std::reverse(hs.begin(), hs.end());
  } else if (shape % 3 == 2) {
    for (size_t i = n; i > 1; --i) {
      std::swap(hs[i - 1], hs[rng->Uniform(i)]);
    }
  }
  return hs;
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<kernels::Isa> {
 protected:
  const kernels::KernelOps* ops() const {
    return kernels::OpsForIsa(GetParam());
  }
  const kernels::KernelOps* ref() const {
    return kernels::OpsForIsa(kernels::Isa::kScalar);
  }
};

// Both pools replay the same randomized build / or / scan sequence; slab
// words and all kernel outputs must match the scalar pool exactly.
TEST_P(KernelEquivalenceTest, SignatureOpsMatchScalar) {
  Rng rng(0x5eed0000 + static_cast<uint32_t>(GetParam()));
  for (int k : {1, 3, 16, 31, 32, 33, 64, 100, 256, 800}) {
    // Value range tight enough that "=", "<" and ">" relations all occur.
    // The second pass straddles 2^63: min-hash values use all 64 bits, so
    // a kernel comparing 64-bit lanes as signed builds other bits there.
    const uint64_t span = static_cast<uint64_t>(k) * 2 + 1;
    for (const uint64_t lo :
         {uint64_t{0}, (uint64_t{1} << 63) - static_cast<uint64_t>(k)}) {
      SignaturePool test_pool(k, ops());
      SignaturePool ref_pool(k, ref());

      // Populate 3 full-ish blocks of slots plus a ragged tail.
      const size_t slots = 8 * 3 + 1 + rng.Uniform(6);
      const Sketch query = RandomSketch(&rng, k, span, lo);
      for (size_t i = 0; i < slots; ++i) {
        const uint32_t ht = test_pool.Allocate();
        const uint32_t hr = ref_pool.Allocate();
        ASSERT_EQ(ht, hr);
        const Sketch cand = RandomSketch(&rng, k, span, lo);
        test_pool.BuildFromSketches(ht, cand, query);
        ref_pool.BuildFromSketches(hr, cand, query);
      }
      const auto expect_slabs_equal = [&](const char* where) {
        for (uint32_t h = 0; h < slots; ++h) {
          for (size_t w = 0; w < test_pool.words_per_sig(); ++w) {
            ASSERT_EQ(test_pool.word(h, w), ref_pool.word(h, w))
                << where << ": K=" << k << " lo=" << lo << " slot " << h
                << " word " << w;
          }
        }
      };
      expect_slabs_equal("after build");

      for (int round = 0; round < 8; ++round) {
        // Random disjoint dst/src batches of every shape, sized to straddle
        // the 4- and 8-slot vector pass widths.
        const size_t n = 1 + rng.Uniform(static_cast<uint64_t>(slots / 2));
        auto dst = MakeBatch(&rng, 0, n, round);
        auto src = MakeBatch(&rng, static_cast<uint32_t>(slots - n), n,
                             round + 1);
        std::vector<int> less_t(n, -1), less_r(n, -2);
        test_pool.OrRange(dst.data(), src.data(), n,
                          round % 2 == 0 ? less_t.data() : nullptr);
        ref_pool.OrRange(dst.data(), src.data(), n,
                         round % 2 == 0 ? less_r.data() : nullptr);
        if (round % 2 == 0) {
          EXPECT_EQ(less_t, less_r);
        }
        expect_slabs_equal("after or");

        auto all = MakeBatch(&rng, 0, slots, round);
        std::vector<int> eq_t(slots), eq_r(slots);
        test_pool.NumEqualBatch(all.data(), slots, eq_t.data());
        ref_pool.NumEqualBatch(all.data(), slots, eq_r.data());
        EXPECT_EQ(eq_t, eq_r);
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, SketchOpsMatchScalar) {
  Rng rng(0xcafe0000 + static_cast<uint32_t>(GetParam()));
  for (int k : {1, 5, 16, 64, 129}) {
    SketchPool test_pool(k, ops());
    SketchPool ref_pool(k, ref());
    const uint32_t a_t = test_pool.Allocate(), b_t = test_pool.Allocate();
    const uint32_t a_r = ref_pool.Allocate(), b_r = ref_pool.Allocate();
    for (int round = 0; round < 16; ++round) {
      const Sketch x = RandomSketch(&rng, k, 64);
      const Sketch y = RandomSketch(&rng, k, 64);
      test_pool.Assign(a_t, x);
      test_pool.Assign(b_t, y);
      ref_pool.Assign(a_r, x);
      ref_pool.Assign(b_r, y);
      test_pool.CombineMin(a_t, b_t);
      ref_pool.CombineMin(a_r, b_r);
      EXPECT_EQ(test_pool.ToSketch(a_t), ref_pool.ToSketch(a_r));
      const Sketch q = RandomSketch(&rng, k, 64);
      EXPECT_EQ(test_pool.NumEqualAgainst(a_t, q),
                ref_pool.NumEqualAgainst(a_r, q));
    }
  }
}

// Freed-and-reused slots must keep the batch kernels exact: handle batches
// over a pool whose free-list has recycled slots in both directions.
TEST_P(KernelEquivalenceTest, RecycledSlotsMatchScalar) {
  Rng rng(0xfeed0000 + static_cast<uint32_t>(GetParam()));
  const int k = 64;
  SignaturePool test_pool(k, ops());
  SignaturePool ref_pool(k, ref());
  const Sketch query = RandomSketch(&rng, k, 100);
  std::vector<uint32_t> live;
  for (int step = 0; step < 200; ++step) {
    if (live.size() > 24 && rng.Bernoulli(0.5)) {
      const size_t at = rng.Uniform(live.size());
      test_pool.Free(live[at]);
      ref_pool.Free(live[at]);
      live.erase(live.begin() + static_cast<long>(at));
    } else {
      const uint32_t ht = test_pool.Allocate();
      const uint32_t hr = ref_pool.Allocate();
      ASSERT_EQ(ht, hr);
      const Sketch cand = RandomSketch(&rng, k, 100);
      test_pool.BuildFromSketches(ht, cand, query);
      ref_pool.BuildFromSketches(hr, cand, query);
      live.push_back(ht);
    }
    if (live.size() >= 2 && step % 7 == 0) {
      std::vector<int> eq_t(live.size()), eq_r(live.size());
      test_pool.NumEqualBatch(live.data(), live.size(), eq_t.data());
      ref_pool.NumEqualBatch(live.data(), live.size(), eq_r.data());
      ASSERT_EQ(eq_t, eq_r) << "step " << step;
    }
  }
  EXPECT_TRUE(test_pool.Validate().ok());
  EXPECT_TRUE(ref_pool.Validate().ok());
}

std::string IsaParamName(
    const ::testing::TestParamInfo<kernels::Isa>& info) {
  return kernels::IsaName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelEquivalenceTest,
                         ::testing::ValuesIn(kernels::SupportedIsas()),
                         IsaParamName);

// Dispatch sanity: the table picked at startup is one of the supported
// levels and every registered level round-trips its name.
TEST(KernelDispatchTest, ActiveOpsIsSupported) {
  const kernels::KernelOps& active = kernels::ActiveOps();
  EXPECT_TRUE(kernels::IsaSupported(active.isa));
  for (kernels::Isa isa : kernels::SupportedIsas()) {
    kernels::Isa parsed;
    ASSERT_TRUE(kernels::ParseIsa(kernels::IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
    ASSERT_NE(kernels::OpsForIsa(isa), nullptr);
    EXPECT_EQ(kernels::OpsForIsa(isa)->isa, isa);
  }
  EXPECT_FALSE(kernels::IsaSupported(static_cast<kernels::Isa>(99)));
}

}  // namespace
}  // namespace vcd::sketch
