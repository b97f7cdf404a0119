#include "sketch/signature_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "sketch/bit_signature.h"
#include "util/rng.h"

namespace vcd::sketch {
namespace {

/// Random sketch over a small value alphabet so "=" positions actually occur.
Sketch RandomSketch(int k, Rng* rng) {
  Sketch sk;
  sk.mins.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) sk.mins.push_back(rng->Uniform(4));
  return sk;
}

TEST(SignaturePoolTest, BuildMatchesScalarReference) {
  Rng rng(42);
  for (int k : {1, 5, 31, 32, 33, 64, 128, 200}) {
    SignaturePool pool(k);
    for (int trial = 0; trial < 20; ++trial) {
      const Sketch cand = RandomSketch(k, &rng);
      const Sketch query = RandomSketch(k, &rng);
      const SignaturePool::Handle h = pool.Allocate();
      pool.BuildFromSketches(h, cand, query);
      const BitSignature ref = BitSignature::FromSketches(cand, query);
      EXPECT_EQ(pool.ToBitSignature(h), ref) << "k=" << k;
      EXPECT_EQ(pool.NumEqual(h), ref.NumEqual());
      EXPECT_EQ(pool.NumLess(h), ref.NumLess());
      EXPECT_DOUBLE_EQ(pool.Similarity(h), ref.Similarity());
      EXPECT_TRUE(pool.ToBitSignature(h).Validate().ok());
      pool.Free(h);
    }
    EXPECT_TRUE(pool.Validate().ok());
  }
}

TEST(SignaturePoolTest, OrMatchesScalarOrWith) {
  Rng rng(7);
  const int k = 100;
  SignaturePool pool(k);
  for (int trial = 0; trial < 20; ++trial) {
    const Sketch base = RandomSketch(k, &rng);
    const Sketch a = RandomSketch(k, &rng);
    const Sketch b = RandomSketch(k, &rng);
    const SignaturePool::Handle ha = pool.Allocate();
    const SignaturePool::Handle hb = pool.Allocate();
    pool.BuildFromSketches(ha, a, base);
    pool.BuildFromSketches(hb, b, base);
    BitSignature ref = BitSignature::FromSketches(a, base);
    ref.OrWith(BitSignature::FromSketches(b, base));
    pool.Or(ha, hb);
    EXPECT_EQ(pool.ToBitSignature(ha), ref);
    pool.Free(ha);
    pool.Free(hb);
  }
}

TEST(SignaturePoolTest, BatchKernelsMatchPerSlotOps) {
  Rng rng(99);
  const int k = 64;
  const size_t n = 37;
  SignaturePool pool(k);
  std::vector<SignaturePool::Handle> dst(n), src(n);
  std::vector<BitSignature> ref(n);
  const Sketch query = RandomSketch(k, &rng);
  for (size_t i = 0; i < n; ++i) {
    const Sketch a = RandomSketch(k, &rng);
    const Sketch b = RandomSketch(k, &rng);
    dst[i] = pool.Allocate();
    src[i] = pool.Allocate();
    pool.BuildFromSketches(dst[i], a, query);
    pool.BuildFromSketches(src[i], b, query);
    ref[i] = BitSignature::FromSketches(a, query);
    ref[i].OrWith(BitSignature::FromSketches(b, query));
  }
  // NumLess comes from the OR pass itself, as in the detector's merges.
  std::vector<int> less(n);
  pool.OrRange(dst.data(), src.data(), n, less.data());
  std::vector<int> eq(n);
  pool.NumEqualBatch(dst.data(), n, eq.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(pool.ToBitSignature(dst[i]), ref[i]) << i;
    EXPECT_EQ(eq[i], ref[i].NumEqual()) << i;
    EXPECT_EQ(less[i], ref[i].NumLess()) << i;
  }
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(SignaturePoolTest, FreeListReusesSlotsWithoutGrowth) {
  SignaturePool pool(16);
  const SignaturePool::Handle a = pool.Allocate();
  const SignaturePool::Handle b = pool.Allocate();
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.live_count(), 2u);
  pool.Free(a);
  EXPECT_FALSE(pool.IsLive(a));
  EXPECT_TRUE(pool.IsLive(b));
  const SignaturePool::Handle c = pool.Allocate();
  EXPECT_EQ(c, a) << "freed slot must be reused";
  EXPECT_EQ(pool.capacity(), 2u) << "reuse must not grow the slab";
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(SignaturePoolTest, ReusedSlotIsZeroed) {
  Rng rng(5);
  const int k = 40;
  SignaturePool pool(k);
  const SignaturePool::Handle h = pool.Allocate();
  pool.BuildFromSketches(h, RandomSketch(k, &rng), RandomSketch(k, &rng));
  pool.Free(h);
  const SignaturePool::Handle h2 = pool.Allocate();
  ASSERT_EQ(h2, h);
  // A fresh slot is the all-">" signature: zero words, zero counts.
  for (size_t w = 0; w < pool.words_per_sig(); ++w) {
    EXPECT_EQ(pool.word(h2, w), 0u);
  }
  EXPECT_EQ(pool.NumEqual(h2), 0);
  EXPECT_EQ(pool.NumLess(h2), 0);
}

TEST(SignaturePoolTest, HandlesSurviveSlabGrowth) {
  Rng rng(11);
  const int k = 48;
  SignaturePool pool(k);
  const Sketch cand = RandomSketch(k, &rng);
  const Sketch query = RandomSketch(k, &rng);
  const SignaturePool::Handle first = pool.Allocate();
  pool.BuildFromSketches(first, cand, query);
  const BitSignature ref = BitSignature::FromSketches(cand, query);
  // Force many slab growths (and likely reallocations of the backing store).
  std::vector<SignaturePool::Handle> extra;
  for (int i = 0; i < 5000; ++i) extra.push_back(pool.Allocate());
  EXPECT_EQ(pool.ToBitSignature(first), ref)
      << "slot contents must survive slab reallocation";
  // A slot allocated after the growth is addressed in the new slab.
  const SignaturePool::Handle second = pool.Allocate();
  pool.BuildFromSketches(second, cand, query);
  EXPECT_EQ(pool.ToBitSignature(second), ref);
  for (SignaturePool::Handle h : extra) pool.Free(h);
  EXPECT_TRUE(pool.Validate().ok());
  EXPECT_EQ(pool.live_count(), 2u);
}

TEST(SignaturePoolTest, ValidateCatchesImpossiblePair) {
  SignaturePool pool(32);
  const SignaturePool::Handle h = pool.Allocate();
  ASSERT_TRUE(pool.Validate().ok());
  // Set an odd ("<") bit without its even ("≤") partner — unreachable
  // through SetRelation/Or, so Validate must flag it.
  pool.word(h, 0) = 0x2;
  EXPECT_FALSE(pool.Validate().ok());
}

TEST(SignaturePoolTest, ValidateCatchesNonzeroTailBits) {
  SignaturePool pool(5);  // 10 bits used, 54 tail bits in the single word
  const SignaturePool::Handle h = pool.Allocate();
  ASSERT_TRUE(pool.Validate().ok());
  pool.word(h, 0) = uint64_t{0x3} << 10;  // a valid pair, but beyond 2K
  EXPECT_FALSE(pool.Validate().ok());
}

}  // namespace
}  // namespace vcd::sketch
