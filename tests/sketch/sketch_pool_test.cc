#include "sketch/sketch_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sketch/minhash.h"
#include "util/rng.h"

namespace vcd::sketch {
namespace {

Sketch RandomSketch(int k, Rng* rng) {
  Sketch sk;
  sk.mins.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) sk.mins.push_back(rng->Uniform(4));
  return sk;
}

TEST(SketchPoolTest, AllocateYieldsEmptySketch) {
  SketchPool pool(8);
  const SketchPool::Handle h = pool.Allocate();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(pool.mins(h)[i], std::numeric_limits<uint64_t>::max());
  }
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(SketchPoolTest, AssignAndToSketchRoundTrip) {
  Rng rng(3);
  const int k = 50;
  SketchPool pool(k);
  const Sketch sk = RandomSketch(k, &rng);
  const SketchPool::Handle h = pool.Allocate();
  pool.Assign(h, sk);
  EXPECT_EQ(pool.ToSketch(h), sk);
}

TEST(SketchPoolTest, CombineMinMatchesScalarCombine) {
  Rng rng(17);
  const int k = 75;
  SketchPool pool(k);
  for (int trial = 0; trial < 20; ++trial) {
    const Sketch a = RandomSketch(k, &rng);
    const Sketch b = RandomSketch(k, &rng);
    const SketchPool::Handle ha = pool.Allocate();
    const SketchPool::Handle hb = pool.Allocate();
    pool.Assign(ha, a);
    pool.Assign(hb, b);
    pool.CombineMin(ha, hb);
    Sketch ref = a;
    Sketcher::Combine(&ref, b);
    EXPECT_EQ(pool.ToSketch(ha), ref);
    EXPECT_TRUE(Sketcher::ValidateCombined(pool.ToSketch(ha), a, b).ok());
    pool.Free(ha);
    pool.Free(hb);
  }
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(SketchPoolTest, NumEqualMatchesScalarSimilarity) {
  Rng rng(23);
  const int k = 120;
  SketchPool pool(k);
  for (int trial = 0; trial < 20; ++trial) {
    const Sketch a = RandomSketch(k, &rng);
    const Sketch q = RandomSketch(k, &rng);
    const SketchPool::Handle h = pool.Allocate();
    pool.Assign(h, a);
    EXPECT_EQ(pool.NumEqualAgainst(h, q), Sketcher::NumEqual(a, q));
    EXPECT_DOUBLE_EQ(pool.SimilarityAgainst(h, q), Sketcher::Similarity(a, q));
    pool.Free(h);
  }
}

TEST(SketchPoolTest, FreeListReusesSlotsWithoutGrowth) {
  SketchPool pool(16);
  const SketchPool::Handle a = pool.Allocate();
  const SketchPool::Handle b = pool.Allocate();
  EXPECT_EQ(pool.capacity(), 2u);
  pool.Free(b);
  const SketchPool::Handle c = pool.Allocate();
  EXPECT_EQ(c, b) << "freed slot must be reused";
  EXPECT_EQ(pool.capacity(), 2u) << "reuse must not grow the slab";
  // Reused slots are re-initialized to the empty sketch.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(pool.mins(c)[i], std::numeric_limits<uint64_t>::max());
  }
  EXPECT_TRUE(pool.IsLive(a));
  EXPECT_TRUE(pool.Validate().ok());
}

TEST(SketchPoolTest, HandlesSurviveSlabGrowth) {
  Rng rng(41);
  const int k = 60;
  SketchPool pool(k);
  const Sketch sk = RandomSketch(k, &rng);
  const SketchPool::Handle first = pool.Allocate();
  pool.Assign(first, sk);
  std::vector<SketchPool::Handle> extra;
  for (int i = 0; i < 5000; ++i) extra.push_back(pool.Allocate());
  EXPECT_EQ(pool.ToSketch(first), sk)
      << "slot contents must survive slab reallocation";
  for (SketchPool::Handle h : extra) pool.Free(h);
  EXPECT_EQ(pool.live_count(), 1u);
  EXPECT_TRUE(pool.Validate().ok());
}

}  // namespace
}  // namespace vcd::sketch
