/// \file portfolio_test.cc
/// Detectors that share one `core::Portfolio` (as an executor shard's
/// streams do) must behave exactly like detectors that own theirs: the
/// same matches and the same stats, RunningStats moments included, in all
/// 16 configurations, across a RemoveQuery and an AddQuerySketch made
/// between two frames of a running pair of streams.

#include "core/portfolio.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "util/rng.h"

namespace vcd::core {
namespace {

using features::CellId;

constexpr int kSlots = 120;
constexpr int kChurnSlot = 60;  ///< query 2 removed, query 4 added before this slot

/// The 16 configurations: representation × order × index × pruning.
DetectorConfig ConfigFor(int variant) {
  DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  c.representation = (variant & 1) != 0 ? Representation::kSketch : Representation::kBit;
  c.order =
      (variant & 2) != 0 ? CombinationOrder::kGeometric : CombinationOrder::kSequential;
  c.use_index = (variant & 4) == 0;
  c.enable_pruning = (variant & 8) == 0;
  c.validate_state = true;  // every window cross-checks the shared table
  return c;
}

struct Query {
  int id = 0;
  std::vector<CellId> cells;
};

std::vector<CellId> Cells(Rng* rng, int n, uint64_t base, uint64_t vocabulary) {
  std::vector<CellId> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<CellId>(base + rng->Uniform(vocabulary)));
  }
  return out;
}

/// Two streams over four queries. Stream 0 carries query 1 at slots
/// 20..59 and query 4, subscribed only at kChurnSlot, at 70..109. Stream 1
/// carries query 2, removed at kChurnSlot, at 0..29, query 1 again at
/// 30..69, inside stream 0's report cooldown for it, and query 3 at
/// 75..109. Every other slot is background no query holds.
struct Scenario {
  std::vector<Query> queries;
  std::vector<std::vector<CellId>> streams;

  Scenario() {
    Rng rng(11);
    const int lengths[] = {40, 30, 35, 40};
    for (int q = 0; q < 4; ++q) {
      queries.push_back(Query{q + 1, Cells(&rng, lengths[q], 0, 1000)});
    }
    streams = {Cells(&rng, kSlots, 100000, 5000), Cells(&rng, kSlots, 100000, 5000)};
    Plant(0, 20, queries[0]);
    Plant(0, 70, queries[3]);
    Plant(1, 0, queries[1]);
    Plant(1, 30, queries[0]);
    Plant(1, 75, queries[2]);
  }

  void Plant(size_t stream, int at, const Query& q) {
    for (size_t i = 0; i < q.cells.size(); ++i) {
      streams[stream][static_cast<size_t>(at) + i] = q.cells[i];
    }
  }
};

/// Matches and stats of both streams.
struct RunOutput {
  std::vector<std::vector<Match>> matches;
  std::vector<DetectorStats> stats;
};

RunOutput RunPair(const DetectorConfig& config, bool shared) {
  const Scenario sc;
  auto family = sketch::MinHashFamily::Create(config.K, config.hash_seed).value();
  const sketch::Sketcher sketcher(&family);
  const auto subscribe = [&](auto* target, const Query& q) {
    const double duration = static_cast<double>(q.cells.size()) / 2.5;
    EXPECT_TRUE(target
                    ->AddQuerySketch(q.id, sketcher.FromSequence(q.cells),
                                     static_cast<int>(q.cells.size()), duration)
                    .ok());
  };
  Portfolio portfolio(config);
  std::vector<std::unique_ptr<CopyDetector>> dets;
  for (int s = 0; s < 2; ++s) {
    dets.push_back((shared ? CopyDetector::Create(config, &portfolio)
                           : CopyDetector::Create(config))
                       .value());
  }
  for (int q = 0; q < 3; ++q) {
    if (shared) {
      subscribe(&portfolio, sc.queries[static_cast<size_t>(q)]);
    } else {
      for (auto& d : dets) subscribe(d.get(), sc.queries[static_cast<size_t>(q)]);
    }
  }
  for (int slot = 0; slot < kSlots; ++slot) {
    if (slot == kChurnSlot) {
      if (shared) {
        EXPECT_TRUE(portfolio.RemoveQuery(2).ok());
        subscribe(&portfolio, sc.queries[3]);
      } else {
        for (auto& d : dets) {
          EXPECT_TRUE(d->RemoveQuery(2).ok());
          subscribe(d.get(), sc.queries[3]);
        }
      }
    }
    for (size_t s = 0; s < dets.size(); ++s) {
      EXPECT_TRUE(dets[s]
                      ->ProcessFingerprint(slot * 12, slot / 2.5,
                                           sc.streams[s][static_cast<size_t>(slot)])
                      .ok());
    }
  }
  RunOutput out;
  for (auto& d : dets) {
    EXPECT_TRUE(d->Finish().ok());
    EXPECT_TRUE(d->ValidateState().ok());
    out.matches.push_back(d->matches());
    out.stats.push_back(d->stats());
  }
  return out;
}

void ExpectSameRaw(const RunningStats& a, const RunningStats& b) {
  const auto ra = a.ToRaw();
  const auto rb = b.ToRaw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.mean, rb.mean);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

class SharedPortfolioTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedPortfolioTest, SharedMatchesOwned) {
  const DetectorConfig config = ConfigFor(GetParam());
  const RunOutput owned = RunPair(config, /*shared=*/false);
  const RunOutput shared = RunPair(config, /*shared=*/true);
  // Not vacuous: the query added mid-run and the one removed mid-run both
  // match, on either side of the churn, and both streams report query 1
  // within one cooldown, which a cooldown kept per portfolio would mute.
  const auto reports = [](const std::vector<Match>& ms, int id) {
    for (const Match& m : ms) {
      if (m.query_id == id) return true;
    }
    return false;
  };
  EXPECT_TRUE(reports(owned.matches[0], 4));
  EXPECT_TRUE(reports(owned.matches[1], 2));
  EXPECT_TRUE(reports(owned.matches[0], 1));
  EXPECT_TRUE(reports(owned.matches[1], 1));
  for (size_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const std::vector<Match>& want = owned.matches[s];
    const std::vector<Match>& got = shared.matches[s];
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].query_id, want[i].query_id) << i;
      EXPECT_EQ(got[i].start_frame, want[i].start_frame) << i;
      EXPECT_EQ(got[i].end_frame, want[i].end_frame) << i;
      EXPECT_EQ(got[i].start_time, want[i].start_time) << i;
      EXPECT_EQ(got[i].end_time, want[i].end_time) << i;
      EXPECT_EQ(got[i].similarity, want[i].similarity) << i;
    }
    const DetectorStats& a = owned.stats[s];
    const DetectorStats& b = shared.stats[s];
    EXPECT_EQ(a.key_frames, b.key_frames);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.sketch_combines, b.sketch_combines);
    EXPECT_EQ(a.sketch_compares, b.sketch_compares);
    EXPECT_EQ(a.bitsig_ors, b.bitsig_ors);
    EXPECT_EQ(a.bitsig_builds, b.bitsig_builds);
    EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
    ExpectSameRaw(a.signatures_per_window, b.signatures_per_window);
    ExpectSameRaw(a.candidates_per_window, b.candidates_per_window);
    ExpectSameRaw(a.pool_slots_per_window, b.pool_slots_per_window);
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SharedPortfolioTest, ::testing::Range(0, 16));

TEST(PortfolioTest, RefusesADetectorOfAnotherShape) {
  DetectorConfig config = ConfigFor(0);
  Portfolio portfolio(config);
  EXPECT_TRUE(CopyDetector::Create(config, &portfolio).ok());
  config.K = 32;
  EXPECT_EQ(CopyDetector::Create(config, &portfolio).status().code(),
            StatusCode::kInvalidArgument);
  config = ConfigFor(0);
  config.use_index = false;
  EXPECT_EQ(CopyDetector::Create(config, &portfolio).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(CopyDetector::Create(ConfigFor(0), nullptr).ok());
}

}  // namespace
}  // namespace vcd::core
