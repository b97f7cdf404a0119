#include "index/hash_query_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "sketch/bit_signature.h"
#include "util/rng.h"

namespace vcd::index {
namespace {

using sketch::BitSignature;
using sketch::MinHashFamily;
using sketch::Sketch;
using sketch::Sketcher;

/// Builds m random query sketches over a small id universe so equal
/// min-hash values actually occur.
std::vector<Sketch> RandomSketches(const MinHashFamily& fam, int m, Rng* rng,
                                   int set_size = 30, uint32_t universe = 500) {
  Sketcher sk(&fam);
  std::vector<Sketch> out;
  for (int q = 0; q < m; ++q) {
    std::vector<features::CellId> ids;
    for (int i = 0; i < set_size; ++i) {
      ids.push_back(static_cast<features::CellId>(rng->Uniform(universe)));
    }
    out.push_back(sk.FromSequence(ids));
  }
  return out;
}

/// Queries [first, last) of \p sketches, ordinal = position.
std::vector<HashQueryIndex::Query> Queries(const std::vector<Sketch>& sketches,
                                           int first = 0, int last = -1) {
  if (last < 0) last = static_cast<int>(sketches.size());
  std::vector<HashQueryIndex::Query> out;
  for (int q = first; q < last; ++q) {
    out.push_back({q, &sketches[static_cast<size_t>(q)]});
  }
  return out;
}

HashQueryIndex BuildAll(const std::vector<Sketch>& sketches) {
  return HashQueryIndex::Build(sketches[0].K(), Queries(sketches)).value();
}

std::vector<int> Related(const HashQueryIndex& idx, const Sketch& w) {
  std::vector<uint64_t> seen;
  std::vector<int> out;
  idx.ProbeRelatedInto(w, &seen, &out);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](uint64_t b) { return b == 0; }))
      << "seen bitmap must come back all-zero";
  return out;
}

/// Brute force: the ordinals in \p live whose sketch shares ≥ 1 min-hash
/// value with \p w, ascending.
std::vector<int> BruteRelated(const std::map<int, const Sketch*>& live, const Sketch& w) {
  std::vector<int> out;
  for (const auto& [q, sk] : live) {
    if (Sketcher::NumEqual(w, *sk) > 0) out.push_back(q);
  }
  return out;
}

Sketch RandomWindow(const MinHashFamily& fam, Rng* rng, int n, uint32_t universe) {
  std::vector<features::CellId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(static_cast<features::CellId>(rng->Uniform(universe)));
  }
  return Sketcher(&fam).FromSequence(ids);
}

TEST(HashQueryIndexTest, BuildValidation) {
  auto fam = MinHashFamily::Create(8).value();
  auto fam4 = MinHashFamily::Create(4).value();
  Rng rng(1);
  auto sketches = RandomSketches(fam, 3, &rng);
  auto other_k = RandomSketches(fam4, 1, &rng);
  EXPECT_FALSE(HashQueryIndex::Build(0, {}).ok());
  EXPECT_FALSE(HashQueryIndex::Build(4, Queries(sketches)).ok());
  EXPECT_FALSE(HashQueryIndex::Build(8, {{0, &sketches[0]}, {1, &other_k[0]}}).ok());
  EXPECT_FALSE(HashQueryIndex::Build(8, {{-1, &sketches[0]}}).ok());
  EXPECT_FALSE(HashQueryIndex::Build(8, {{0, nullptr}}).ok());
  EXPECT_EQ(
      HashQueryIndex::Build(8, {{5, &sketches[0]}, {5, &sketches[1]}}).status().code(),
      StatusCode::kAlreadyExists);
  EXPECT_TRUE(HashQueryIndex::Build(8, Queries(sketches)).ok());
  // An empty index is valid and relates nothing.
  auto empty = HashQueryIndex::Build(8, {}).value();
  EXPECT_EQ(empty.num_queries(), 0);
  EXPECT_TRUE(empty.Validate().ok());
  EXPECT_TRUE(Related(empty, sketches[0]).empty());
}

TEST(HashQueryIndexTest, BuildInvariants) {
  auto fam = MinHashFamily::Create(32).value();
  Rng rng(3);
  auto idx = BuildAll(RandomSketches(fam, 20, &rng));
  EXPECT_EQ(idx.K(), 32);
  EXPECT_EQ(idx.num_queries(), 20);
  EXPECT_TRUE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, ValidateReportsCorruptedRowOrder) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(11);
  auto sketches = RandomSketches(fam, 8, &rng);
  auto idx = BuildAll(sketches);
  ASSERT_TRUE(idx.Validate().ok());
  // Push the first entry of row 2 above its neighbour: rows must stay sorted
  // by value, so Validate has to notice.
  idx.mutable_values_for_test(2)[0] = ~uint64_t{0};
  EXPECT_FALSE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, ValidateReportsRowLengthMismatch) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(12);
  auto sketches = RandomSketches(fam, 8, &rng);
  auto idx = BuildAll(sketches);
  // A row's ordinal array shorter than its value array.
  idx.mutable_ordinals_for_test(3).pop_back();
  EXPECT_FALSE(idx.Validate().ok());
  // A row shorter than row 0 in both arrays.
  auto idx2 = BuildAll(sketches);
  idx2.mutable_values_for_test(5).pop_back();
  idx2.mutable_ordinals_for_test(5).pop_back();
  EXPECT_FALSE(idx2.Validate().ok());
}

TEST(HashQueryIndexTest, ValidateReportsDuplicatedOrdinal) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(13);
  auto sketches = RandomSketches(fam, 8, &rng);
  auto idx = BuildAll(sketches);
  // Row 4's last entry takes its first entry's ordinal (dropping its own):
  // lengths and the sort order stay intact.
  std::vector<int32_t>& ords = idx.mutable_ordinals_for_test(4);
  ASSERT_LT(idx.values(4).front(), idx.values(4).back());
  ords.back() = ords.front();
  EXPECT_FALSE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, QuerySketchRoundTrip) {
  // Each query's sketch can be read back from the rows: row r holds the
  // ordinal exactly once, at value mins[r].
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(5);
  auto sketches = RandomSketches(fam, 10, &rng);
  auto idx = BuildAll(sketches);
  for (int r = 0; r < idx.K(); ++r) {
    std::map<int, uint64_t> row;
    for (size_t j = 0; j < idx.values(r).size(); ++j) {
      EXPECT_TRUE(row.emplace(idx.ordinals(r)[j], idx.values(r)[j]).second);
    }
    ASSERT_EQ(row.size(), sketches.size());
    for (const auto& [q, v] : row) {
      EXPECT_EQ(v, sketches[static_cast<size_t>(q)].mins[static_cast<size_t>(r)])
          << "row " << r << " ordinal " << q;
    }
  }
}

TEST(HashQueryIndexTest, ProbeFindsExactDuplicate) {
  auto fam = MinHashFamily::Create(64).value();
  Rng rng(7);
  auto sketches = RandomSketches(fam, 15, &rng);
  auto idx = BuildAll(sketches);
  // Probing with a copy of query 3's sketch relates query 3.
  const Sketch copy = sketches[3];
  const auto rel = Related(idx, copy);
  EXPECT_TRUE(std::binary_search(rel.begin(), rel.end(), 3));
}

TEST(HashQueryIndexTest, ProbeMatchesBruteForceWithoutPruning) {
  // The probe returns exactly the queries sharing at least one min-hash
  // value, ascending — R_L before Lemma 2.
  auto fam = MinHashFamily::Create(48).value();
  Rng rng(11);
  auto sketches = RandomSketches(fam, 25, &rng, 40, 300);
  auto idx = BuildAll(sketches);
  std::map<int, const Sketch*> live;
  for (int q = 0; q < 25; ++q) live[q] = &sketches[static_cast<size_t>(q)];
  for (int trial = 0; trial < 10; ++trial) {
    const Sketch w = RandomWindow(fam, &rng, 25, 300);
    EXPECT_EQ(Related(idx, w), BruteRelated(live, w)) << "trial " << trial;
  }
}

TEST(HashQueryIndexTest, PruningOnlyRemovesLemma2Violators) {
  // Fig. 5 prunes a related query as soon as its partial N_s exceeds
  // K(1−δ). N_s only grows row by row, so that early prune keeps exactly
  // the queries whose finished signature satisfies Lemma 2 — the set the
  // detector keeps after building each signature from the query's sketch.
  auto fam = MinHashFamily::Create(48).value();
  Rng rng(13);
  auto sketches = RandomSketches(fam, 25, &rng, 40, 300);
  auto idx = BuildAll(sketches);
  for (double delta : {0.3, 0.5, 0.7}) {
    const Sketch w = RandomWindow(fam, &rng, 25, 300);
    const double max_less = 48 * (1.0 - delta) + 1e-9;
    for (int q : Related(idx, w)) {
      const Sketch& qs = sketches[static_cast<size_t>(q)];
      int num_less = 0;
      bool early_pruned = false;
      for (int r = 0; r < 48; ++r) {
        num_less += w.mins[static_cast<size_t>(r)] < qs.mins[static_cast<size_t>(r)];
        early_pruned |= num_less > max_less;
      }
      EXPECT_EQ(early_pruned, !BitSignature::FromSketches(w, qs).SatisfiesLemma2(delta))
          << "delta " << delta << " query " << q;
    }
  }
}

TEST(HashQueryIndexTest, ProbeRelatedMatchesBruteForce) {
  auto fam = MinHashFamily::Create(32).value();
  Rng rng(17);
  auto sketches = RandomSketches(fam, 20, &rng, 40, 200);
  auto idx = BuildAll(sketches);
  std::map<int, const Sketch*> live;
  for (int q = 0; q < 20; ++q) live[q] = &sketches[static_cast<size_t>(q)];
  const Sketch w = RandomWindow(fam, &rng, 30, 200);
  EXPECT_EQ(Related(idx, w), BruteRelated(live, w));
}

TEST(HashQueryIndexTest, InsertMaintainsInvariantsAndProbe) {
  auto fam = MinHashFamily::Create(24).value();
  Rng rng(19);
  auto sketches = RandomSketches(fam, 10, &rng, 30, 200);
  auto idx = HashQueryIndex::Build(24, Queries(sketches, 0, 8)).value();
  ASSERT_TRUE(idx.Insert(8, sketches[8]).ok());
  ASSERT_TRUE(idx.Insert(9, sketches[9]).ok());
  EXPECT_EQ(idx.num_queries(), 10);
  EXPECT_TRUE(idx.Validate().ok());
  // The incrementally built index equals a batch-built one, row for row.
  auto batch = BuildAll(sketches);
  for (int r = 0; r < 24; ++r) {
    EXPECT_EQ(idx.values(r), batch.values(r)) << "row " << r;
    EXPECT_EQ(idx.ordinals(r), batch.ordinals(r)) << "row " << r;
  }
  EXPECT_EQ(Related(idx, sketches[9]), Related(batch, sketches[9]));
}

TEST(HashQueryIndexTest, InsertDuplicateIdRejected) {
  auto fam = MinHashFamily::Create(8).value();
  Rng rng(23);
  auto sketches = RandomSketches(fam, 3, &rng);
  auto idx = BuildAll(sketches);
  // Ordinal 0 is indexed already, whatever sketch comes with it.
  EXPECT_EQ(idx.Insert(0, sketches[0]).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(idx.Insert(0, sketches[2]).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(idx.Insert(-1, sketches[2]).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(idx.Validate().ok());
}

TEST(HashQueryIndexTest, InsertWrongKRejected) {
  auto fam8 = MinHashFamily::Create(8).value();
  auto fam16 = MinHashFamily::Create(16).value();
  Rng rng(29);
  auto idx = BuildAll(RandomSketches(fam8, 3, &rng));
  auto wrong = RandomSketches(fam16, 1, &rng);
  EXPECT_EQ(idx.Insert(99, wrong[0]).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(idx.Remove(0, wrong[0]).code(), StatusCode::kInvalidArgument);
}

TEST(HashQueryIndexTest, RemoveMaintainsInvariants) {
  auto fam = MinHashFamily::Create(24).value();
  Rng rng(31);
  auto sketches = RandomSketches(fam, 12, &rng, 30, 200);
  auto idx = BuildAll(sketches);
  ASSERT_TRUE(idx.Remove(4, sketches[4]).ok());
  ASSERT_TRUE(idx.Remove(11, sketches[11]).ok());
  ASSERT_TRUE(idx.Remove(0, sketches[0]).ok());
  EXPECT_EQ(idx.num_queries(), 9);
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(idx.Remove(4, sketches[4]).code(), StatusCode::kNotFound);
  // A sketch other than the indexed one is refused, and nothing changes.
  EXPECT_EQ(idx.Remove(5, sketches[6]).code(), StatusCode::kNotFound);
  EXPECT_EQ(idx.num_queries(), 9);
  EXPECT_TRUE(idx.Validate().ok());
  // Removed queries never come back from probes.
  const auto rel = Related(idx, sketches[4]);
  EXPECT_FALSE(std::binary_search(rel.begin(), rel.end(), 4));
  // Remaining queries are still probed correctly.
  const auto rel2 = Related(idx, sketches[2]);
  EXPECT_TRUE(std::binary_search(rel2.begin(), rel2.end(), 2));
}

TEST(HashQueryIndexTest, InsertRemoveChurnStressKeepsInvariants) {
  auto fam = MinHashFamily::Create(16).value();
  Rng rng(37);
  auto sketches = RandomSketches(fam, 40, &rng, 20, 150);
  auto idx = HashQueryIndex::Build(16, Queries(sketches, 0, 5)).value();
  std::set<int> live = {0, 1, 2, 3, 4};
  for (int step = 0; step < 100; ++step) {
    if (rng.Bernoulli(0.5) && live.size() < 40) {
      // Insert a random non-live query.
      const int q = static_cast<int>(rng.Uniform(40));
      if (live.count(q)) continue;
      ASSERT_TRUE(idx.Insert(q, sketches[static_cast<size_t>(q)]).ok());
      live.insert(q);
    } else if (live.size() > 1) {
      auto it = live.begin();
      std::advance(it, static_cast<int>(rng.Uniform(live.size())));
      ASSERT_TRUE(idx.Remove(*it, sketches[static_cast<size_t>(*it)]).ok());
      live.erase(it);
    }
    ASSERT_TRUE(idx.Validate().ok()) << "step " << step;
    ASSERT_EQ(idx.num_queries(), static_cast<int>(live.size()));
  }
}

TEST(HashQueryIndexTest, ChurnMatchesFreshBuildAndBruteForce) {
  // Seeded random Insert/Remove churn over a tiny cell universe, so rows
  // carry long runs of equal min-hash values. Some inserts reuse a removed
  // ordinal with its old sketch; others add a new ordinal carrying a copy
  // of a live query's sketch (a row-for-row duplicate). After every step
  // the probe must agree with a fresh Build over the live set and with
  // brute force.
  constexpr int kK = 24;
  auto fam = MinHashFamily::Create(kK).value();
  Rng rng(20080407);
  std::vector<Sketch> pool = RandomSketches(fam, 24, &rng, 12, 60);
  std::map<int, Sketch> sketch_of;  // every ordinal ever used
  std::map<int, const Sketch*> live;
  std::set<int> removed;
  int next_ordinal = 0;
  for (; next_ordinal < 8; ++next_ordinal) {
    sketch_of[next_ordinal] = pool[static_cast<size_t>(next_ordinal)];
  }
  std::vector<HashQueryIndex::Query> initial;
  for (auto& [q, sk] : sketch_of) {
    initial.push_back({q, &sk});
    live[q] = &sk;
  }
  auto idx = HashQueryIndex::Build(kK, initial).value();
  for (int step = 0; step < 200; ++step) {
    const double u = rng.UniformDouble();
    if (u < 0.4 && live.size() > 1) {
      auto it = live.begin();
      std::advance(it, static_cast<int>(rng.Uniform(live.size())));
      ASSERT_TRUE(idx.Remove(it->first, *it->second).ok()) << "step " << step;
      removed.insert(it->first);
      live.erase(it);
    } else if (u < 0.6 && !removed.empty()) {
      auto it = removed.begin();
      std::advance(it, static_cast<int>(rng.Uniform(removed.size())));
      const int q = *it;
      removed.erase(it);
      ASSERT_TRUE(idx.Insert(q, sketch_of[q]).ok()) << "step " << step;
      live[q] = &sketch_of[q];
    } else {
      const int q = next_ordinal++;
      if (u < 0.8) {
        auto it = live.begin();
        std::advance(it, static_cast<int>(rng.Uniform(live.size())));
        sketch_of[q] = *it->second;
      } else {
        sketch_of[q] = pool[rng.Uniform(pool.size())];
      }
      ASSERT_TRUE(idx.Insert(q, sketch_of[q]).ok()) << "step " << step;
      live[q] = &sketch_of[q];
    }
    ASSERT_TRUE(idx.Validate().ok()) << "step " << step;
    ASSERT_EQ(idx.num_queries(), static_cast<int>(live.size()));

    std::vector<HashQueryIndex::Query> live_queries;
    for (const auto& [q, sk] : live) live_queries.push_back({q, sk});
    const auto fresh = HashQueryIndex::Build(kK, live_queries).value();
    const Sketch windows[] = {RandomWindow(fam, &rng, 6, 60), *live.begin()->second};
    for (const Sketch& w : windows) {
      const auto got = Related(idx, w);
      EXPECT_EQ(got, Related(fresh, w)) << "step " << step;
      EXPECT_EQ(got, BruteRelated(live, w)) << "step " << step;
    }
  }
}

TEST(HashQueryIndexTest, SingleQueryIndex) {
  auto fam = MinHashFamily::Create(8).value();
  Rng rng(41);
  auto sketches = RandomSketches(fam, 1, &rng);
  auto idx = HashQueryIndex::Build(8, {{7, &sketches[0]}}).value();
  EXPECT_TRUE(idx.Validate().ok());
  EXPECT_EQ(Related(idx, sketches[0]), std::vector<int>{7});
}

TEST(HashQueryIndexTest, KEqualsOneWorks) {
  auto fam = MinHashFamily::Create(1).value();
  Rng rng(43);
  auto sketches = RandomSketches(fam, 5, &rng, 10, 50);
  auto idx = BuildAll(sketches);
  EXPECT_TRUE(idx.Validate().ok());
  const auto rel = Related(idx, sketches[0]);
  EXPECT_TRUE(std::binary_search(rel.begin(), rel.end(), 0));
}

TEST(HashQueryIndexTest, EveryQueryFindsItselfPerfectly) {
  // Probing with each indexed query's own sketch relates that query, across
  // sizes.
  auto fam = MinHashFamily::Create(40).value();
  Rng rng(47);
  for (int m : {1, 2, 7, 33, 130}) {
    auto sketches = RandomSketches(fam, m, &rng, 25, 400);
    auto idx = BuildAll(sketches);
    for (int q = 0; q < m; ++q) {
      const auto rel = Related(idx, sketches[static_cast<size_t>(q)]);
      EXPECT_TRUE(std::binary_search(rel.begin(), rel.end(), q))
          << "m=" << m << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace vcd::index
