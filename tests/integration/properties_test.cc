/// \file properties_test.cc
/// Cross-module property tests: the statistical and algebraic invariants
/// the paper's correctness rests on, checked over randomized inputs.

#include <gtest/gtest.h>

#include <set>

#include "features/fingerprint.h"
#include "index/hash_query_index.h"
#include "sketch/bit_signature.h"
#include "sketch/jaccard.h"
#include "sketch/minhash.h"
#include "util/rng.h"

namespace vcd {
namespace {

using features::CellId;
using sketch::BitSignature;
using sketch::MinHashFamily;
using sketch::Sketch;
using sketch::Sketcher;

std::vector<CellId> RandomIds(Rng* rng, size_t n, uint32_t universe) {
  std::vector<CellId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<CellId>(rng->Uniform(universe)));
  }
  return out;
}

/// Property: splitting a sequence at ANY point and combining the two part
/// sketches equals the whole sequence's sketch (Property 1, arbitrary cut).
TEST(PropertyTest, SketchCombineAtArbitraryCuts) {
  Rng rng(101);
  auto fam = MinHashFamily::Create(64).value();
  Sketcher sk(&fam);
  for (int trial = 0; trial < 25; ++trial) {
    auto seq = RandomIds(&rng, 2 + rng.Uniform(100), 5000);
    const Sketch whole = sk.FromSequence(seq);
    const size_t cut = 1 + rng.Uniform(seq.size() - 1);
    Sketch left = sk.FromSequence({seq.begin(), seq.begin() + static_cast<long>(cut)});
    const Sketch right =
        sk.FromSequence({seq.begin() + static_cast<long>(cut), seq.end()});
    Sketcher::Combine(&left, right);
    EXPECT_EQ(left, whole) << "cut " << cut;
  }
}

/// Property: combining in any association order gives the same sketch
/// (min is associative and commutative).
TEST(PropertyTest, SketchCombineAssociative) {
  Rng rng(103);
  auto fam = MinHashFamily::Create(32).value();
  Sketcher sk(&fam);
  auto a = sk.FromSequence(RandomIds(&rng, 20, 3000));
  auto b = sk.FromSequence(RandomIds(&rng, 20, 3000));
  auto c = sk.FromSequence(RandomIds(&rng, 20, 3000));
  Sketch ab = a;
  Sketcher::Combine(&ab, b);
  Sketch ab_c = ab;
  Sketcher::Combine(&ab_c, c);
  Sketch bc = b;
  Sketcher::Combine(&bc, c);
  Sketch a_bc = a;
  Sketcher::Combine(&a_bc, bc);
  EXPECT_EQ(ab_c, a_bc);
}

/// Property: element-wise-min combination is commutative (Property 1) —
/// with associativity, the algebraic fact that lets the parallel executor's
/// shards build window sketches independently and merge them in any
/// completion order without changing the result. Fuzzed over seeded random
/// sketches of varying K and set size.
TEST(PropertyTest, SketchCombineCommutative) {
  Rng rng(137);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 8 + static_cast<int>(rng.Uniform(120));
    auto fam = MinHashFamily::Create(k, rng.Next()).value();
    Sketcher sk(&fam);
    const Sketch a = sk.FromSequence(RandomIds(&rng, 1 + rng.Uniform(60), 4000));
    const Sketch b = sk.FromSequence(RandomIds(&rng, 1 + rng.Uniform(60), 4000));
    Sketch ab = a;
    Sketcher::Combine(&ab, b);
    Sketch ba = b;
    Sketcher::Combine(&ba, a);
    EXPECT_EQ(ab, ba) << "trial " << trial << " k=" << k;
  }
}

/// Property: bit-signature OR (Def. 3) is associative and commutative —
/// the same out-of-order-merge guarantee for the Bit representation.
TEST(PropertyTest, BitSignatureOrAssociativeCommutative) {
  Rng rng(139);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 8 + static_cast<int>(rng.Uniform(72));
    auto fam = MinHashFamily::Create(k, rng.Next()).value();
    Sketcher sk(&fam);
    const Sketch query = sk.FromSequence(RandomIds(&rng, 30, 2500));
    const BitSignature s1 = BitSignature::FromSketches(
        sk.FromSequence(RandomIds(&rng, 1 + rng.Uniform(20), 2500)), query);
    const BitSignature s2 = BitSignature::FromSketches(
        sk.FromSequence(RandomIds(&rng, 1 + rng.Uniform(20), 2500)), query);
    const BitSignature s3 = BitSignature::FromSketches(
        sk.FromSequence(RandomIds(&rng, 1 + rng.Uniform(20), 2500)), query);
    // Commutativity.
    BitSignature s12 = s1;
    s12.OrWith(s2);
    BitSignature s21 = s2;
    s21.OrWith(s1);
    EXPECT_TRUE(s12 == s21) << "trial " << trial;
    // Associativity.
    BitSignature left = s12;
    left.OrWith(s3);
    BitSignature s23 = s2;
    s23.OrWith(s3);
    BitSignature right = s1;
    right.OrWith(s23);
    EXPECT_TRUE(left == right) << "trial " << trial;
  }
}

/// Property: bit-signature OR distributes over multi-way combination — the
/// signature of an n-way combined candidate equals the OR of the n parts'
/// signatures, for any n.
TEST(PropertyTest, BitSignatureMultiWayOr) {
  Rng rng(107);
  auto fam = MinHashFamily::Create(48).value();
  Sketcher sk(&fam);
  for (int trial = 0; trial < 20; ++trial) {
    const int parts = 2 + static_cast<int>(rng.Uniform(6));
    Sketch query = sk.FromSequence(RandomIds(&rng, 30, 2000));
    Sketch combined = sk.Empty();
    BitSignature orsig(48);
    for (int p = 0; p < parts; ++p) {
      Sketch part = sk.FromSequence(RandomIds(&rng, 10, 2000));
      Sketcher::Combine(&combined, part);
      BitSignature psig = BitSignature::FromSketches(part, query);
      orsig.OrWith(psig);
    }
    EXPECT_TRUE(orsig == BitSignature::FromSketches(combined, query));
  }
}

/// Property: Lemma 2 is a true upper-bound filter — no candidate that can
/// still reach similarity δ against the query is ever pruned, for any
/// extension of the candidate.
TEST(PropertyTest, Lemma2NeverPrunesFutureMatches) {
  Rng rng(109);
  auto fam = MinHashFamily::Create(40).value();
  Sketcher sk(&fam);
  const double delta = 0.6;
  for (int trial = 0; trial < 40; ++trial) {
    Sketch query = sk.FromSequence(RandomIds(&rng, 25, 1500));
    Sketch cand = sk.FromSequence(RandomIds(&rng, 10, 1500));
    BitSignature sig = BitSignature::FromSketches(cand, query);
    if (sig.SatisfiesLemma2(delta)) continue;  // not pruned; nothing to check
    // The candidate was pruned. Extend it arbitrarily (including with the
    // query's own content — the best case) and verify it can never match.
    Sketch best = cand;
    Sketcher::Combine(&best, query);
    EXPECT_LT(Sketcher::Similarity(best, query), delta)
        << "pruned candidate could still have matched";
  }
}

/// Property: min-hash similarity is reorder-invariant over windows — the
/// estimate for a stream segment does not depend on the order its windows
/// arrive in (the core robustness claim, end to end).
TEST(PropertyTest, WindowOrderInvariance) {
  Rng rng(113);
  auto fam = MinHashFamily::Create(64).value();
  Sketcher sk(&fam);
  auto w1 = RandomIds(&rng, 12, 4000);
  auto w2 = RandomIds(&rng, 12, 4000);
  auto w3 = RandomIds(&rng, 12, 4000);
  Sketch fwd = sk.FromSequence(w1);
  Sketcher::Combine(&fwd, sk.FromSequence(w2));
  Sketcher::Combine(&fwd, sk.FromSequence(w3));
  Sketch rev = sk.FromSequence(w3);
  Sketcher::Combine(&rev, sk.FromSequence(w1));
  Sketcher::Combine(&rev, sk.FromSequence(w2));
  EXPECT_EQ(fwd, rev);
}

/// Property: the index probe plus per-query signatures is consistent with
/// computing everything by brute force, across many random worlds, and
/// stays so through random removes and re-inserts.
TEST(PropertyTest, IndexProbeEquivalenceSweep) {
  Rng rng(127);
  for (int world = 0; world < 5; ++world) {
    const int k = 8 + static_cast<int>(rng.Uniform(56));
    const int m = 2 + static_cast<int>(rng.Uniform(30));
    auto fam = MinHashFamily::Create(k, rng.Next()).value();
    Sketcher sk(&fam);
    std::vector<Sketch> sketches;
    std::vector<index::HashQueryIndex::Query> queries;
    for (int q = 0; q < m; ++q) {
      sketches.push_back(sk.FromSequence(RandomIds(&rng, 20, 400)));
    }
    for (int q = 0; q < m; ++q) queries.push_back({q, &sketches[static_cast<size_t>(q)]});
    auto idx = index::HashQueryIndex::Build(k, queries).value();
    std::vector<bool> live(static_cast<size_t>(m), true);
    std::vector<uint64_t> seen;
    std::vector<int> related;
    for (int round = 0; round < 4; ++round) {
      ASSERT_TRUE(idx.Validate().ok());
      Sketch w = sk.FromSequence(RandomIds(&rng, 15, 400));
      idx.ProbeRelatedInto(w, &seen, &related);
      std::vector<int> expect;
      for (int q = 0; q < m; ++q) {
        if (live[static_cast<size_t>(q)] &&
            Sketcher::NumEqual(w, sketches[static_cast<size_t>(q)]) > 0) {
          expect.push_back(q);
        }
      }
      EXPECT_EQ(related, expect) << "world " << world << " k=" << k << " m=" << m;
      for (int q : related) {
        // R_L built query-major: the signature comes from the query sketch.
        const BitSignature sig =
            BitSignature::FromSketches(w, sketches[static_cast<size_t>(q)]);
        EXPECT_GT(sig.NumEqual(), 0);
        EXPECT_TRUE(sig.Validate().ok());
      }
      // Toggle one query's subscription.
      const int q = static_cast<int>(rng.Uniform(static_cast<uint64_t>(m)));
      const Sketch& qs = sketches[static_cast<size_t>(q)];
      std::vector<bool>::reference on = live[static_cast<size_t>(q)];
      ASSERT_TRUE((on ? idx.Remove(q, qs) : idx.Insert(q, qs)).ok());
      on = !on;
    }
  }
}

/// Property: the fingerprint pipeline is scale-consistent — doubling the
/// resolution of a DC map (same content) keeps the cell id, because region
/// averages and Eq. 1 are resolution-independent.
TEST(PropertyTest, FingerprintResolutionInvariance) {
  Rng rng(131);
  auto fp = features::FrameFingerprinter::Create(features::FingerprintOptions()).value();
  int agree = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    // Build a low-res DC map, then an exactly block-doubled version.
    video::DcFrame small;
    small.blocks_x = 6;
    small.blocks_y = 6;
    small.dc.resize(36);
    for (auto& v : small.dc) v = static_cast<float>(rng.UniformInt(-96, 96)) * 8;
    video::DcFrame big;
    big.blocks_x = 12;
    big.blocks_y = 12;
    big.dc.resize(144);
    for (int y = 0; y < 12; ++y) {
      for (int x = 0; x < 12; ++x) {
        big.dc[static_cast<size_t>(y) * 12 + x] =
            small.dc[static_cast<size_t>(y / 2) * 6 + x / 2];
      }
    }
    agree += (fp.Fingerprint(small) == fp.Fingerprint(big));
  }
  EXPECT_EQ(agree, trials);
}

}  // namespace
}  // namespace vcd
