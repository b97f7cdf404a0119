#include "sketch/bit_signature.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.h"

namespace vcd::sketch {
namespace {

Sketch MakeSketch(std::vector<uint64_t> mins) {
  Sketch s;
  s.mins = std::move(mins);
  return s;
}

TEST(BitSignatureTest, EncodingRules) {
  // cand > query → no bits; cand = query → even bit; cand < query → both.
  Sketch cand = MakeSketch({9, 5, 2});
  Sketch query = MakeSketch({5, 5, 5});
  BitSignature sig = BitSignature::FromSketches(cand, query);
  // position 0: 9 > 5 → (0,0)
  EXPECT_FALSE(sig.bits().Get(0));
  EXPECT_FALSE(sig.bits().Get(1));
  // position 1: 5 = 5 → (1,0)
  EXPECT_TRUE(sig.bits().Get(2));
  EXPECT_FALSE(sig.bits().Get(3));
  // position 2: 2 < 5 → (1,1)
  EXPECT_TRUE(sig.bits().Get(4));
  EXPECT_TRUE(sig.bits().Get(5));
}

TEST(BitSignatureTest, CountsAndSimilarity) {
  Sketch cand = MakeSketch({9, 5, 2, 7, 7});
  Sketch query = MakeSketch({5, 5, 5, 7, 9});
  BitSignature sig = BitSignature::FromSketches(cand, query);
  // relations: >, =, <, =, <
  EXPECT_EQ(sig.NumEqual(), 2);
  EXPECT_EQ(sig.NumLess(), 2);
  EXPECT_DOUBLE_EQ(sig.Similarity(), 2.0 / 5.0);
}

TEST(BitSignatureTest, Lemma1MatchesSketchSimilarity) {
  // sim from the bit signature must equal the fraction of equal min-hash
  // values — the losslessness claim of §V-A.
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 1 + static_cast<int>(rng.Uniform(200));
    Sketch cand, query;
    for (int i = 0; i < k; ++i) {
      cand.mins.push_back(rng.Uniform(20));
      query.mins.push_back(rng.Uniform(20));
    }
    BitSignature sig = BitSignature::FromSketches(cand, query);
    EXPECT_DOUBLE_EQ(sig.Similarity(), Sketcher::Similarity(cand, query)) << "K=" << k;
  }
}

TEST(BitSignatureTest, OrMergeEqualsSignatureOfMin) {
  // The heart of the representation: OR of the two candidates' signatures
  // equals the signature of their element-wise-min combination — for every
  // relation pair, per the merge table under Definition 3.
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const int k = 16;
    Sketch a, b, query;
    for (int i = 0; i < k; ++i) {
      a.mins.push_back(rng.Uniform(10));
      b.mins.push_back(rng.Uniform(10));
      query.mins.push_back(rng.Uniform(10));
    }
    BitSignature sa = BitSignature::FromSketches(a, query);
    BitSignature sb = BitSignature::FromSketches(b, query);
    sa.OrWith(sb);
    Sketch combined = a;
    Sketcher::Combine(&combined, b);
    BitSignature expect = BitSignature::FromSketches(combined, query);
    EXPECT_TRUE(sa == expect) << "trial " << trial;
  }
}

TEST(BitSignatureTest, AllSixMergeCasesExplicit) {
  // min{>,>}=">", min{>,=}="=", min{>,<}="<", min{=,=}="=", min{=,<}="<",
  // min{<,<}="<" — exactly the paper's table.
  struct Case {
    uint64_t a, b;  // candidate values; query value fixed at 5
    int equal_bits; // expected NumEqual of merged 1-position signature
    int less_bits;  // expected NumLess
  };
  const Case cases[] = {
      {9, 8, 0, 0},  // >,> → >
      {9, 5, 1, 0},  // >,= → =
      {9, 3, 0, 1},  // >,< → <
      {5, 5, 1, 0},  // =,= → =
      {5, 3, 0, 1},  // =,< → <
      {2, 3, 0, 1},  // <,< → <
  };
  for (const Case& c : cases) {
    BitSignature sa(1), sb(1);
    sa.SetRelation(0, c.a, 5);
    sb.SetRelation(0, c.b, 5);
    sa.OrWith(sb);
    EXPECT_EQ(sa.NumEqual(), c.equal_bits) << c.a << "," << c.b;
    EXPECT_EQ(sa.NumLess(), c.less_bits) << c.a << "," << c.b;
  }
}

TEST(BitSignatureTest, EmptyCandidateIsAllGreater) {
  BitSignature sig(8);
  EXPECT_EQ(sig.NumEqual(), 0);
  EXPECT_EQ(sig.NumLess(), 0);
  EXPECT_DOUBLE_EQ(sig.Similarity(), 0.0);
}

TEST(BitSignatureTest, Lemma2Threshold) {
  // K=10, δ=0.7 → a candidate may carry at most 3 "<" positions.
  BitSignature sig(10);
  for (int r = 0; r < 3; ++r) sig.SetRelation(r, 1, 5);  // three "<"
  EXPECT_TRUE(sig.SatisfiesLemma2(0.7));
  sig.SetRelation(3, 1, 5);  // fourth "<"
  EXPECT_FALSE(sig.SatisfiesLemma2(0.7));
}

TEST(BitSignatureTest, Lemma2MaxLessAgreesWithSatisfiesLemma2) {
  // The detector prunes on the integer bound alone, so it must draw the
  // line where the reference does for every reachable NumLess — also at
  // the δ where K(1−δ) is an integer and the line sits on an attained
  // count.
  Rng rng(23);
  for (int k : {1, 16, 64, 800, 3000}) {
    std::vector<double> deltas;
    for (int i = 0; i < 20; ++i) deltas.push_back(rng.UniformDouble(0.0, 1.0));
    for (int j : {0, 1, k / 3, k / 2, k - 1, k}) {
      deltas.push_back(1.0 - static_cast<double>(j) / k);
    }
    for (int j = 0; j < 20; ++j) {
      deltas.push_back(
          1.0 - static_cast<double>(rng.Uniform(static_cast<uint64_t>(k) + 1)) / k);
    }
    BitSignature sig(k);
    for (int less = 0; less <= k; ++less) {
      ASSERT_EQ(sig.NumLess(), less);
      for (double delta : deltas) {
        ASSERT_EQ(less <= BitSignature::Lemma2MaxLess(k, delta),
                  sig.SatisfiesLemma2(delta))
            << "K=" << k << " delta=" << delta << " NumLess=" << less;
      }
      if (less < k) sig.SetRelation(less, 0, 1);  // one more "<"
    }
  }
}

TEST(BitSignatureTest, Lemma2MonotoneUnderOr) {
  // Once violated, merging can never restore Lemma 2 (the basis for chain
  // pruning): NumLess only grows under OR.
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 20;
    BitSignature a(k), b(k);
    for (int r = 0; r < k; ++r) {
      a.SetRelation(r, rng.Uniform(10), rng.Uniform(10));
      b.SetRelation(r, rng.Uniform(10), rng.Uniform(10));
    }
    const int before = a.NumLess();
    a.OrWith(b);
    EXPECT_GE(a.NumLess(), before);
  }
}

TEST(BitSignatureTest, IsEqualAt) {
  Sketch cand = MakeSketch({9, 5, 2});
  Sketch query = MakeSketch({5, 5, 5});
  BitSignature sig = BitSignature::FromSketches(cand, query);
  EXPECT_FALSE(sig.IsEqualAt(0));
  EXPECT_TRUE(sig.IsEqualAt(1));
  EXPECT_FALSE(sig.IsEqualAt(2));
}

TEST(BitSignatureTest, SimilarityNeverExceedsOne) {
  Sketch a = MakeSketch({1, 1, 1, 1});
  BitSignature sig = BitSignature::FromSketches(a, a);
  EXPECT_DOUBLE_EQ(sig.Similarity(), 1.0);
  EXPECT_TRUE(sig.SatisfiesLemma2(1.0));
}

TEST(BitSignatureTest, Equality) {
  BitSignature a(4), b(4), c(5);
  EXPECT_TRUE(a == b);
  b.SetRelation(0, 1, 2);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(BitSignatureValidateTest, AcceptsBuiltAndMergedSignatures) {
  Sketch cand = MakeSketch({9, 5, 2});
  Sketch query = MakeSketch({5, 5, 5});
  BitSignature sig = BitSignature::FromSketches(cand, query);
  EXPECT_TRUE(sig.Validate().ok());
  BitSignature other = BitSignature::FromSketches(query, query);
  sig.OrWith(other);
  EXPECT_TRUE(sig.Validate().ok());
  EXPECT_TRUE(BitSignature(7).Validate().ok());  // all-">" is well-formed
}

TEST(BitSignatureValidateTest, ReportsImpossibleRelationPair) {
  Sketch cand = MakeSketch({9, 5, 2});
  Sketch query = MakeSketch({5, 5, 5});
  BitSignature sig = BitSignature::FromSketches(cand, query);
  ASSERT_TRUE(sig.Validate().ok());
  // Force (even=0, odd=1) at position 0: "cand < query but not cand ≤ query".
  sig.mutable_bits_for_test().Clear(0);
  sig.mutable_bits_for_test().Set(1);
  Status st = sig.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("(0,1)"), std::string::npos);
}

}  // namespace
}  // namespace vcd::sketch
