#include "core/detector.h"

#include <gtest/gtest.h>

#include "util/logging.h"

#include <algorithm>
#include <set>

#include "core/evaluation.h"
#include "util/rng.h"

namespace vcd::core {
namespace {

using features::CellId;

/// A synthetic fingerprinted world: "content" is a sequence of cell ids;
/// queries are id subsequences; the stream plays background noise ids with
/// query content embedded at known frames. Key frames tick at 2.5/s
/// (GOP 12 at 30 fps).
struct World {
  static constexpr double kKeyFps = 2.5;

  Rng rng{1234};

  std::vector<CellId> RandomContent(size_t n, uint32_t lo, uint32_t hi) {
    std::vector<CellId> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(lo + static_cast<CellId>(rng.Uniform(hi - lo)));
    }
    return out;
  }

  /// Feeds a cell sequence as consecutive key frames starting at key-frame
  /// slot `at`; slot s is stream frame 12*s at time s/2.5.
  static Status Feed(CopyDetector* det, const std::vector<CellId>& ids, int64_t at) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const int64_t slot = at + static_cast<int64_t>(i);
      VCD_RETURN_IF_ERROR(det->ProcessFingerprint(
          slot * 12, static_cast<double>(slot) / kKeyFps, ids[i]));
    }
    return Status::OK();
  }
};

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 200;
  c.window_seconds = 4.0;  // 10 key frames per window
  c.delta = 0.7;
  return c;
}

/// Builds a detector with one 40-key-frame query and a 200-slot stream with
/// the (possibly permuted) query embedded at slot 100.
struct Scenario {
  World world;
  std::vector<CellId> query;
  std::vector<CellId> background_a, background_b;
  static constexpr int64_t kInsertSlot = 100;

  Scenario() {
    query = world.RandomContent(40, 0, 1000);
    background_a = world.RandomContent(100, 5000, 9000);
    background_b = world.RandomContent(60, 5000, 9000);
  }

  /// Runs the scenario; returns the detector after Finish().
  std::unique_ptr<CopyDetector> Run(DetectorConfig config,
                                    std::vector<CellId> embedded) {
    auto det = CopyDetector::Create(config);
    VCD_CHECK(det.ok(), det.status().ToString());
    VCD_CHECK((*det)->AddQueryCells(1, query, 16.0).ok(), "add query");
    VCD_CHECK(World::Feed(det->get(), background_a, 0).ok(), "feed");
    VCD_CHECK(World::Feed(det->get(), embedded, kInsertSlot).ok(), "feed");
    VCD_CHECK(World::Feed(det->get(), background_b,
                          kInsertSlot + static_cast<int64_t>(embedded.size()))
                  .ok(),
              "feed");
    VCD_CHECK((*det)->Finish().ok(), "finish");
    return std::move(*det);
  }

  /// True when some match of query 1 lies inside the embedded interval
  /// (allowing the trailing window per the paper's position rule).
  static bool DetectedInWindow(const CopyDetector& det, size_t embedded_len) {
    const int64_t begin = kInsertSlot * 12;
    const int64_t end = (kInsertSlot + static_cast<int64_t>(embedded_len)) * 12;
    for (const Match& m : det.matches()) {
      if (m.query_id == 1 && m.end_frame >= begin && m.end_frame <= end + 10 * 12) {
        return true;
      }
    }
    return false;
  }
};

TEST(CopyDetectorTest, CreateValidation) {
  DetectorConfig c;
  c.K = 0;
  EXPECT_FALSE(CopyDetector::Create(c).ok());
  EXPECT_TRUE(CopyDetector::Create(DetectorConfig()).ok());
}

TEST(CopyDetectorTest, AddQueryValidation) {
  auto det = CopyDetector::Create(SmallConfig()).value();
  EXPECT_FALSE(det->AddQueryCells(1, {}, 10.0).ok());
  EXPECT_FALSE(det->AddQueryCells(1, {1, 2, 3}, -1.0).ok());
  EXPECT_TRUE(det->AddQueryCells(1, {1, 2, 3}, 10.0).ok());
  EXPECT_EQ(det->AddQueryCells(1, {4, 5}, 10.0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(det->ExportQueries().size(), 1u);
}

TEST(CopyDetectorTest, RemoveQuery) {
  auto det = CopyDetector::Create(SmallConfig()).value();
  ASSERT_TRUE(det->AddQueryCells(1, {1, 2, 3}, 10.0).ok());
  EXPECT_TRUE(det->RemoveQuery(1).ok());
  EXPECT_EQ(det->RemoveQuery(1).code(), StatusCode::kNotFound);
  // Id can be reused after removal.
  EXPECT_TRUE(det->AddQueryCells(1, {4, 5, 6}, 10.0).ok());
}

TEST(CopyDetectorTest, ValidateStateCrossChecksIndex) {
  // Ordinals: id 1 → 0, id 2 → 1 (removed), id 3 → 2. Each corruption
  // below leaves the index structurally valid, so only the cross-check
  // against the query table can catch it.
  Portfolio portfolio(SmallConfig());
  auto det = CopyDetector::Create(SmallConfig(), &portfolio).value();
  World w;
  for (int id = 1; id <= 3; ++id) {
    ASSERT_TRUE(det->AddQueryCells(id, w.RandomContent(30, 0, 100), 12.0).ok());
  }
  ASSERT_TRUE(World::Feed(det.get(), w.RandomContent(20, 0, 100), 0).ok());
  ASSERT_TRUE(det->RemoveQuery(2).ok());
  ASSERT_TRUE(det->ValidateState().ok());
  index::HashQueryIndex* idx = portfolio.mutable_index_for_test();
  ASSERT_NE(idx, nullptr);
  const auto queries = det->ExportQueries();  // ids 1 and 3
  const sketch::Sketch& sk1 = std::get<3>(queries[0]);
  const sketch::Sketch& sk3 = std::get<3>(queries[1]);

  // An active ordinal missing from the index.
  ASSERT_TRUE(idx->Remove(0, sk1).ok());
  ASSERT_TRUE(idx->Validate().ok());
  EXPECT_FALSE(det->ValidateState().ok());
  // The ordinal back, but at another query's values.
  ASSERT_TRUE(idx->Insert(0, sk3).ok());
  ASSERT_TRUE(idx->Validate().ok());
  EXPECT_FALSE(det->ValidateState().ok());
  ASSERT_TRUE(idx->Remove(0, sk3).ok());
  ASSERT_TRUE(idx->Insert(0, sk1).ok());
  ASSERT_TRUE(det->ValidateState().ok());
  // The removed ordinal indexed in place of an active one.
  ASSERT_TRUE(idx->Remove(2, sk3).ok());
  ASSERT_TRUE(idx->Insert(1, sk3).ok());
  ASSERT_TRUE(idx->Validate().ok());
  EXPECT_FALSE(det->ValidateState().ok());
}

/// All four method variants × both orders must detect a verbatim copy.
class DetectorVariantTest
    : public ::testing::TestWithParam<std::tuple<Representation, bool, CombinationOrder>> {};

TEST_P(DetectorVariantTest, DetectsVerbatimCopy) {
  auto [repr, use_index, order] = GetParam();
  DetectorConfig c = SmallConfig();
  c.representation = repr;
  c.use_index = use_index;
  c.order = order;
  if (order == CombinationOrder::kGeometric) {
    // Geometric order only materializes geometrically spaced candidate
    // lengths, so the best candidate covering the copy also drags in some
    // background — the recall cost the paper describes. A slightly lower
    // threshold compensates in this controlled scenario.
    c.delta = 0.6;
  }
  Scenario s;
  auto det = s.Run(c, s.query);
  EXPECT_TRUE(Scenario::DetectedInWindow(*det, s.query.size()))
      << RepresentationName(repr) << (use_index ? "Index" : "NoIndex") << " "
      << CombinationOrderName(order);
}

TEST_P(DetectorVariantTest, DetectsReorderedCopy) {
  auto [repr, use_index, order] = GetParam();
  if (order == CombinationOrder::kGeometric) {
    GTEST_SKIP() << "geometric order trades recall for speed; covered by the "
                    "sequential variants";
  }
  DetectorConfig c = SmallConfig();
  c.representation = repr;
  c.use_index = use_index;
  c.order = order;
  Scenario s;
  // Reorder the copy in 4 chunks of 10 key frames — set similarity is
  // unaffected, which is the paper's core robustness claim.
  std::vector<CellId> reordered;
  for (int chunk : {2, 0, 3, 1}) {
    for (int i = 0; i < 10; ++i) {
      reordered.push_back(s.query[static_cast<size_t>(chunk * 10 + i)]);
    }
  }
  auto det = s.Run(c, reordered);
  EXPECT_TRUE(Scenario::DetectedInWindow(*det, reordered.size()));
}

TEST_P(DetectorVariantTest, NoFalsePositivesOnPureBackground) {
  auto [repr, use_index, order] = GetParam();
  DetectorConfig c = SmallConfig();
  c.representation = repr;
  c.use_index = use_index;
  c.order = order;
  Scenario s;
  auto det = s.Run(c, s.world.RandomContent(40, 5000, 9000));
  EXPECT_TRUE(det->matches().empty())
      << "false positive from " << RepresentationName(repr);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DetectorVariantTest,
    ::testing::Combine(::testing::Values(Representation::kSketch, Representation::kBit),
                       ::testing::Bool(),
                       ::testing::Values(CombinationOrder::kSequential,
                                         CombinationOrder::kGeometric)));

TEST(CopyDetectorTest, GeometricOrderReportsTheShortestMatchingSuffix) {
  // A 16-cell query and three windows of 10 key frames: windows 1 and 2
  // each hold 6 query cells and 4 others (J = 0.3), window 3 holds 10 query
  // cells (J = 0.625). After window 3 the counter reads 0b11, so Geometric
  // order tests two suffixes, window 3 alone and windows 1..3 (J = 0.8),
  // and both clear δ = 0.5. The report cooldown lets one through: the
  // first one tested. Geometric order tests newest (shortest) first;
  // Sequential order tests oldest first, and its 3-window suffix wins.
  std::vector<CellId> query;
  for (CellId c = 1; c <= 16; ++c) query.push_back(c);
  std::vector<CellId> stream;
  for (int w = 0; w < 2; ++w) {
    for (CellId c : {11, 12, 13, 14, 15, 16, 901, 902, 903, 904}) stream.push_back(c);
  }
  for (CellId c = 1; c <= 10; ++c) stream.push_back(c);
  for (auto rep : {Representation::kBit, Representation::kSketch}) {
    for (double cooldown : {-1.0, 0.0}) {
      for (auto order : {CombinationOrder::kGeometric, CombinationOrder::kSequential}) {
        SCOPED_TRACE(::testing::Message()
                     << RepresentationName(rep) << " " << CombinationOrderName(order)
                     << " cooldown " << cooldown);
        DetectorConfig c = SmallConfig();
        c.delta = 0.5;
        c.representation = rep;
        c.order = order;
        c.report_cooldown_seconds = cooldown;
        c.validate_state = true;
        auto det = CopyDetector::Create(c).value();
        ASSERT_TRUE(det->AddQueryCells(1, query, 40.0).ok());
        ASSERT_TRUE(World::Feed(det.get(), stream, 0).ok());
        ASSERT_TRUE(det->Finish().ok());
        // Every match ends with window 3 (slots 20..29); the start slot
        // tells the suffix apart.
        std::vector<int64_t> start_slots;
        for (const Match& m : det->matches()) {
          EXPECT_EQ(m.end_frame, 29 * 12);
          start_slots.push_back(m.start_frame / 12);
        }
        if (cooldown == 0.0) {
          // Both suffixes match; oldest-first order also tests windows 2..3.
          const std::vector<int64_t> want =
              order == CombinationOrder::kGeometric ? std::vector<int64_t>{20, 0}
                                                    : std::vector<int64_t>{0, 10, 20};
          EXPECT_EQ(start_slots, want);
        } else {
          EXPECT_EQ(start_slots, std::vector<int64_t>{
                                     order == CombinationOrder::kGeometric ? 20 : 0});
        }
      }
    }
  }
}

TEST(CopyDetectorTest, BitAndSketchAgreeWithoutIndex) {
  // The bit signature is a lossless re-encoding of sketch/query relations:
  // BitNoIndex and SketchNoIndex must report identical match sets in
  // Sequential order (pruning only removes candidates that could never
  // match).
  Scenario s;
  DetectorConfig cb = SmallConfig();
  cb.representation = Representation::kBit;
  cb.use_index = false;
  DetectorConfig cs = cb;
  cs.representation = Representation::kSketch;
  auto db = s.Run(cb, s.query);
  auto dsk = s.Run(cs, s.query);
  ASSERT_EQ(db->matches().size(), dsk->matches().size());
  for (size_t i = 0; i < db->matches().size(); ++i) {
    EXPECT_EQ(db->matches()[i].query_id, dsk->matches()[i].query_id);
    EXPECT_EQ(db->matches()[i].end_frame, dsk->matches()[i].end_frame);
    EXPECT_DOUBLE_EQ(db->matches()[i].similarity, dsk->matches()[i].similarity);
  }
}

TEST(CopyDetectorTest, PruningDoesNotChangeMatches) {
  // Lemma 2 is safe: enabling pruning must not lose any detection.
  Scenario s;
  DetectorConfig on = SmallConfig();
  on.representation = Representation::kBit;
  on.use_index = false;
  DetectorConfig off = on;
  off.enable_pruning = false;
  auto don = s.Run(on, s.query);
  auto doff = s.Run(off, s.query);
  ASSERT_EQ(don->matches().size(), doff->matches().size());
  for (size_t i = 0; i < don->matches().size(); ++i) {
    EXPECT_EQ(don->matches()[i].end_frame, doff->matches()[i].end_frame);
  }
  // And pruning must actually have fired.
  EXPECT_GT(don->stats().candidates_pruned, 0);
}

TEST(CopyDetectorTest, ReportCooldownSuppressesDuplicates) {
  Scenario s;
  DetectorConfig burst = SmallConfig();
  burst.report_cooldown_seconds = 0.0;  // report everything
  DetectorConfig cool = SmallConfig();  // default: cooldown = query duration
  auto db = s.Run(burst, s.query);
  auto dc = s.Run(cool, s.query);
  EXPECT_GT(db->matches().size(), dc->matches().size());
  EXPECT_GE(dc->matches().size(), 1u);
}

TEST(CopyDetectorTest, CandidatesExpireAtLambdaL) {
  Scenario s;
  DetectorConfig c = SmallConfig();
  auto det = s.Run(c, s.query);
  // Query duration 16 s, λ=2, w=4 s → max 8 windows per candidate.
  const auto& stats = det->stats();
  EXPECT_GT(stats.windows, 0);
  EXPECT_LE(stats.candidates_per_window.max(), 8.0 + 1e-9);
}

TEST(CopyDetectorTest, ValidateStateHoldsAcrossConfigurations) {
  // Run the full scenario under every representation × order × index
  // combination with the per-window debug sweep enabled: any violated
  // candidate invariant (expiry bound, sort order, malformed signature)
  // aborts inside ProcessWindow, and the final explicit call covers the
  // post-Finish state.
  for (auto rep : {Representation::kBit, Representation::kSketch}) {
    for (auto ord : {CombinationOrder::kSequential, CombinationOrder::kGeometric}) {
      for (bool use_index : {true, false}) {
        Scenario s;
        DetectorConfig c = SmallConfig();
        c.representation = rep;
        c.order = ord;
        c.use_index = use_index;
        c.validate_state = true;
        auto det = s.Run(c, s.query);
        EXPECT_TRUE(det->ValidateState().ok());
      }
    }
  }
}

TEST(CopyDetectorTest, RemovingLongestQueryMidStreamKeepsStateValid) {
  // Query 1 allows ⌈2·64/4⌉ = 32 windows, query 2 six. After 16 windows
  // Geometric order holds one 16-window candidate (Sequential order
  // candidates of up to 16 windows); removing query 1 lowers the λL bound
  // to 6 below them. They expire at the next window, so the per-window
  // ValidateState sweep must accept them until then, and so must a restore
  // of a snapshot taken right after the removal, which then reports the
  // uninterrupted detector's matches from the cut on.
  for (auto order : {CombinationOrder::kGeometric, CombinationOrder::kSequential}) {
    for (auto rep : {Representation::kBit, Representation::kSketch}) {
      SCOPED_TRACE(::testing::Message()
                   << CombinationOrderName(order) << " " << RepresentationName(rep));
      DetectorConfig c = SmallConfig();
      c.order = order;
      c.representation = rep;
      c.validate_state = true;
      World w;
      const std::vector<CellId> long_q = w.RandomContent(40, 0, 1000);
      const std::vector<CellId> short_q = w.RandomContent(20, 0, 1000);
      const std::vector<CellId> before = w.RandomContent(170, 0, 1000);
      // Query 2 plays at windows 24-25.
      std::vector<CellId> after = w.RandomContent(70, 0, 1000);
      after.insert(after.end(), short_q.begin(), short_q.end());
      const std::vector<CellId> tail = w.RandomContent(60, 0, 1000);
      after.insert(after.end(), tail.begin(), tail.end());

      auto det = CopyDetector::Create(c).value();
      ASSERT_TRUE(det->AddQueryCells(1, long_q, 64.0).ok());
      ASSERT_TRUE(det->AddQueryCells(2, short_q, 12.0).ok());
      ASSERT_TRUE(World::Feed(det.get(), before, 0).ok());
      ASSERT_EQ(det->stats().windows, 16);
      ASSERT_TRUE(det->RemoveQuery(1).ok());
      EXPECT_TRUE(det->ValidateState().ok()) << det->ValidateState().ToString();
      const DetectorCkptState snapshot = det->ExportCkptState();
      const size_t before_cut = det->matches().size();

      auto restored = CopyDetector::Create(c).value();
      ASSERT_TRUE(restored->AddQueryCells(2, short_q, 12.0).ok());
      const Status st = restored->RestoreCkptState(snapshot);
      ASSERT_TRUE(st.ok()) << st.ToString();

      const auto at = static_cast<int64_t>(before.size());
      ASSERT_TRUE(World::Feed(det.get(), after, at).ok());
      ASSERT_TRUE(World::Feed(restored.get(), after, at).ok());
      ASSERT_TRUE(det->Finish().ok());
      ASSERT_TRUE(restored->Finish().ok());
      EXPECT_TRUE(det->ValidateState().ok());
      EXPECT_TRUE(restored->ValidateState().ok());
      ASSERT_GT(det->matches().size(), before_cut);
      ASSERT_EQ(det->matches().size() - before_cut, restored->matches().size());
      for (size_t i = 0; i < restored->matches().size(); ++i) {
        const Match& want = det->matches()[before_cut + i];
        EXPECT_EQ(want.query_id, restored->matches()[i].query_id);
        EXPECT_EQ(want.end_frame, restored->matches()[i].end_frame);
        EXPECT_EQ(want.similarity, restored->matches()[i].similarity);
      }
      EXPECT_EQ(det->stats().windows, restored->stats().windows);
    }
  }
}

TEST(CopyDetectorTest, RestoreRefusesSignatureOverLemma2Bound) {
  // Every live Bit signature satisfies Lemma 2, checked where its bits
  // change. A restore writes bits too: a snapshot signature that is "<" at
  // every position is over the bound, and only a detector with pruning off
  // may take it.
  for (auto order : {CombinationOrder::kSequential, CombinationOrder::kGeometric}) {
    SCOPED_TRACE(CombinationOrderName(order));
    Scenario s;
    DetectorConfig c = SmallConfig();
    c.order = order;
    auto det = CopyDetector::Create(c).value();
    ASSERT_TRUE(det->AddQueryCells(1, s.query, 16.0).ok());
    ASSERT_TRUE(World::Feed(det.get(), s.query, 0).ok());
    DetectorCkptState snapshot = det->ExportCkptState();
    CkptCandidate::Sig* sig = nullptr;
    for (CkptCandidate& cand : snapshot.candidates) {
      if (!cand.sigs.empty()) sig = &cand.sigs.front();
    }
    ASSERT_NE(sig, nullptr);
    // 2K bits, every relation pair (1, 1); the tail bits stay zero.
    std::fill(sig->words.begin(), sig->words.end(), ~uint64_t{0});
    const size_t tail = (2 * static_cast<size_t>(c.K)) % 64;
    if (tail != 0) sig->words.back() = (uint64_t{1} << tail) - 1;

    auto restored = CopyDetector::Create(c).value();
    ASSERT_TRUE(restored->AddQueryCells(1, s.query, 16.0).ok());
    const Status st = restored->RestoreCkptState(snapshot);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("Lemma 2"), std::string::npos) << st.ToString();

    c.enable_pruning = false;
    auto unpruned = CopyDetector::Create(c).value();
    ASSERT_TRUE(unpruned->AddQueryCells(1, s.query, 16.0).ok());
    const Status ok = unpruned->RestoreCkptState(snapshot);
    EXPECT_TRUE(ok.ok()) << ok.ToString();
  }
}

TEST(CopyDetectorTest, RestoreRefusesACandidateListItsOrderCannotHold) {
  // Both orders restore one candidate list, oldest first. A Geometric list
  // holds counter boundaries only, each Bit candidate with its span's
  // sketch; a Sequential Bit candidate holds no sketch.
  Scenario s;
  const auto restore = [&](const DetectorConfig& c, const DetectorCkptState& st) {
    auto det = CopyDetector::Create(c).value();
    EXPECT_TRUE(det->AddQueryCells(1, s.query, 16.0).ok());
    return det->RestoreCkptState(st);
  };
  DetectorConfig geo = SmallConfig();
  geo.order = CombinationOrder::kGeometric;
  auto det = CopyDetector::Create(geo).value();
  ASSERT_TRUE(det->AddQueryCells(1, s.query, 16.0).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.query, 0).ok());
  ASSERT_EQ(det->stats().windows, 3);  // 0b11: suffixes of 3 and 1 windows
  const DetectorCkptState snapshot = det->ExportCkptState();
  ASSERT_EQ(snapshot.candidates.size(), 2u);
  ASSERT_TRUE(restore(geo, snapshot).ok());

  const auto expect_refused = [&](const DetectorConfig& c, const DetectorCkptState& st,
                                  const std::string& why) {
    const Status refused = restore(c, st);
    EXPECT_FALSE(refused.ok()) << why;
    EXPECT_NE(refused.ToString().find(why), std::string::npos) << refused.ToString();
  };
  DetectorCkptState off_boundary = snapshot;
  off_boundary.candidates[1].num_windows = 2;  // 3 mod 4 is not 2
  expect_refused(geo, off_boundary, "block boundary");
  DetectorCkptState newest_first = snapshot;
  std::swap(newest_first.candidates[0], newest_first.candidates[1]);
  expect_refused(geo, newest_first, "strictly decreasing");
  DetectorCkptState no_sketch = snapshot;
  no_sketch.candidates[0].mins.clear();
  expect_refused(geo, no_sketch, "holds no sketch slot");
  DetectorConfig seq = geo;
  seq.order = CombinationOrder::kSequential;
  expect_refused(seq, snapshot, "holds a sketch slot");
}

TEST(CopyDetectorTest, StatsCountKeyFramesAndWindows) {
  auto det = CopyDetector::Create(SmallConfig()).value();
  ASSERT_TRUE(det->AddQueryCells(1, {1, 2, 3}, 10.0).ok());
  World w;
  ASSERT_TRUE(World::Feed(det.get(), w.RandomContent(50, 0, 100), 0).ok());
  ASSERT_TRUE(det->Finish().ok());
  EXPECT_EQ(det->stats().key_frames, 50);
  // 50 key frames at 2.5/s = 20 s = 5 windows of 4 s.
  EXPECT_EQ(det->stats().windows, 5);
}

TEST(CopyDetectorTest, ResetStreamKeepsQueries) {
  Scenario s;
  auto det = s.Run(SmallConfig(), s.query);
  EXPECT_FALSE(det->matches().empty());
  det->ResetStream();
  EXPECT_TRUE(det->matches().empty());
  EXPECT_EQ(det->stats().key_frames, 0);
  EXPECT_EQ(det->ExportQueries().size(), 1u);
  // The stream can be replayed with identical results.
  ASSERT_TRUE(World::Feed(det.get(), s.background_a, 0).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.query, Scenario::kInsertSlot).ok());
  ASSERT_TRUE(det->Finish().ok());
  EXPECT_TRUE(Scenario::DetectedInWindow(*det, s.query.size()));
}

TEST(CopyDetectorTest, OnlineQuerySubscriptionMidStream) {
  DetectorConfig c = SmallConfig();
  Scenario s;
  auto det = CopyDetector::Create(c).value();
  // Start streaming with no queries at all.
  ASSERT_TRUE(World::Feed(det.get(), s.background_a, 0).ok());
  // Subscribe mid-stream, then the copy arrives.
  ASSERT_TRUE(det->AddQueryCells(1, s.query, 16.0).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.query, Scenario::kInsertSlot).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.background_b, 140).ok());
  ASSERT_TRUE(det->Finish().ok());
  EXPECT_TRUE(Scenario::DetectedInWindow(*det, s.query.size()));
}

TEST(CopyDetectorTest, UnsubscribedQueryStopsMatching) {
  DetectorConfig c = SmallConfig();
  Scenario s;
  auto det = CopyDetector::Create(c).value();
  ASSERT_TRUE(det->AddQueryCells(1, s.query, 16.0).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.background_a, 0).ok());
  ASSERT_TRUE(det->RemoveQuery(1).ok());
  ASSERT_TRUE(World::Feed(det.get(), s.query, Scenario::kInsertSlot).ok());
  ASSERT_TRUE(det->Finish().ok());
  EXPECT_TRUE(det->matches().empty());
}

TEST(CopyDetectorTest, MultipleQueriesEachDetected) {
  DetectorConfig c = SmallConfig();
  World w;
  auto det = CopyDetector::Create(c).value();
  std::vector<std::vector<CellId>> queries;
  for (int q = 0; q < 5; ++q) {
    queries.push_back(w.RandomContent(30, static_cast<uint32_t>(q * 2000),
                                      static_cast<uint32_t>(q * 2000 + 1000)));
    ASSERT_TRUE(det->AddQueryCells(q + 1, queries.back(), 12.0).ok());
  }
  int64_t slot = 0;
  std::vector<int64_t> insert_at;
  for (int q = 0; q < 5; ++q) {
    ASSERT_TRUE(World::Feed(det.get(), w.RandomContent(30, 50000, 90000), slot).ok());
    slot += 30;
    insert_at.push_back(slot);
    ASSERT_TRUE(World::Feed(det.get(), queries[static_cast<size_t>(q)], slot).ok());
    slot += 30;
  }
  ASSERT_TRUE(det->Finish().ok());
  std::set<int> detected;
  for (const Match& m : det->matches()) detected.insert(m.query_id);
  EXPECT_EQ(detected, (std::set<int>{1, 2, 3, 4, 5}));
}

TEST(CopyDetectorTest, SimilarityReportedAboveThreshold) {
  Scenario s;
  auto det = s.Run(SmallConfig(), s.query);
  for (const Match& m : det->matches()) {
    EXPECT_GE(m.similarity, 0.7);
    EXPECT_LE(m.similarity, 1.0);
    EXPECT_LE(m.start_frame, m.end_frame);
  }
}

TEST(CopyDetectorTest, MemoryStatsTrackSignatures) {
  Scenario s;
  DetectorConfig c = SmallConfig();
  auto det = s.Run(c, s.query);
  EXPECT_GT(det->stats().signatures_per_window.count(), 0);
  // With one query, a candidate holds at most one signature.
  EXPECT_LE(det->stats().signatures_per_window.max(),
            det->stats().candidates_per_window.max());
}


TEST(CopyDetectorTest, StatsCountersReflectRepresentation) {
  Scenario s;
  DetectorConfig cs = SmallConfig();
  cs.representation = Representation::kSketch;
  cs.use_index = false;
  auto dsk = s.Run(cs, s.query);
  EXPECT_GT(dsk->stats().sketch_combines, 0);
  EXPECT_GT(dsk->stats().sketch_compares, 0);
  EXPECT_EQ(dsk->stats().bitsig_ors, 0);

  DetectorConfig cb = SmallConfig();
  cb.representation = Representation::kBit;
  cb.use_index = false;
  auto db = s.Run(cb, s.query);
  EXPECT_GT(db->stats().bitsig_builds, 0);
  EXPECT_GT(db->stats().bitsig_ors, 0);
  EXPECT_EQ(db->stats().sketch_compares, 0);
}

TEST(CopyDetectorTest, LambdaBoundsCandidateLength) {
  // Sketch candidates persist until the λL expiry (Bit candidates can be
  // dropped earlier when all their signatures prune), so the Sketch
  // representation exposes the bound directly.
  Scenario s;
  DetectorConfig c1 = SmallConfig();
  c1.representation = Representation::kSketch;
  c1.use_index = false;
  c1.lambda = 1.0;
  auto d1 = s.Run(c1, s.query);
  DetectorConfig c2 = c1;
  c2.lambda = 2.0;
  auto d2 = s.Run(c2, s.query);
  // Query 16 s, w = 4 s: λ=1 caps candidates at 4 windows, λ=2 at 8.
  EXPECT_LE(d1->stats().candidates_per_window.max(), 4.0 + 1e-9);
  EXPECT_LE(d2->stats().candidates_per_window.max(), 8.0 + 1e-9);
  EXPECT_GT(d2->stats().candidates_per_window.max(),
            d1->stats().candidates_per_window.max());
}

TEST(CopyDetectorTest, DeterministicAcrossRuns) {
  Scenario s;
  auto a = s.Run(SmallConfig(), s.query);
  auto b = s.Run(SmallConfig(), s.query);
  ASSERT_EQ(a->matches().size(), b->matches().size());
  for (size_t i = 0; i < a->matches().size(); ++i) {
    EXPECT_EQ(a->matches()[i].end_frame, b->matches()[i].end_frame);
    EXPECT_DOUBLE_EQ(a->matches()[i].similarity, b->matches()[i].similarity);
  }
}

TEST(CopyDetectorTest, KEqualsOneStillRuns) {
  DetectorConfig c = SmallConfig();
  c.K = 1;
  Scenario s;
  auto det = s.Run(c, s.query);
  // With one hash function the estimate is 0 or 1 — behavior is noisy but
  // must be well-formed.
  for (const Match& m : det->matches()) {
    EXPECT_TRUE(m.similarity == 0.0 || m.similarity == 1.0);
  }
}

TEST(CopyDetectorTest, QueryLongerThanStreamNeverMatches) {
  DetectorConfig c = SmallConfig();
  auto det = CopyDetector::Create(c).value();
  World w;
  // Query of 400 key frames (160 s) against a 40-key-frame stream.
  ASSERT_TRUE(det->AddQueryCells(1, w.RandomContent(400, 0, 1000), 160.0).ok());
  ASSERT_TRUE(World::Feed(det.get(), w.RandomContent(40, 0, 1000), 0).ok());
  ASSERT_TRUE(det->Finish().ok());
  // Stream cells come from the same universe, but |stream| / |query| bounds
  // the Jaccard far below δ.
  EXPECT_TRUE(det->matches().empty());
}

TEST(CopyDetectorTest, WindowLargerThanStreamFlushesOnce) {
  DetectorConfig c = SmallConfig();
  c.window_seconds = 1000.0;
  Scenario s;
  auto det = s.Run(c, s.query);
  EXPECT_EQ(det->stats().windows, 1);  // single flushed window
}

TEST(CopyDetectorTest, GeometricSketchTracksMemory) {
  DetectorConfig c = SmallConfig();
  c.representation = Representation::kSketch;
  c.order = CombinationOrder::kGeometric;
  Scenario s;
  auto det = s.Run(c, s.query);
  EXPECT_GT(det->stats().candidates_per_window.count(), 0);
  // Geometric order keeps at most ⌊log2(max windows)⌋ + 1 suffixes.
  EXPECT_LE(det->stats().candidates_per_window.max(), 5.0);
}

/// Regression: RemoveQuery then AddQuery with the same id must route new
/// matches to the re-added record via the id→ordinal map (the old nested
/// linear scan found the first — stale — record).
TEST(QueryIdReuseTest, ReaddedIdMatchesNewContentOnly) {
  DetectorConfig config;
  config.K = 128;
  config.window_seconds = 4.0;  // 10 key frames per window
  config.delta = 0.65;
  config.validate_state = true;
  World w;
  w.rng = Rng(77);
  const std::vector<CellId> old_content = w.RandomContent(40, 0, 1000);
  const std::vector<CellId> new_content = w.RandomContent(40, 1000, 2000);

  auto det = CopyDetector::Create(config).value();
  ASSERT_TRUE(det->AddQueryCells(7, old_content, 16.0).ok());
  ASSERT_TRUE(det->RemoveQuery(7).ok());
  ASSERT_TRUE(det->AddQueryCells(7, new_content, 16.0).ok());
  // Duplicate add of a live id must still be rejected.
  EXPECT_EQ(det->AddQueryCells(7, old_content, 16.0).code(),
            StatusCode::kAlreadyExists);

  int64_t slot = 0;
  const auto feed = [&](const std::vector<CellId>& ids) {
    ASSERT_TRUE(World::Feed(det.get(), ids, slot).ok());
    slot += static_cast<int64_t>(ids.size());
  };
  feed(w.RandomContent(30, 5000, 9000));
  feed(old_content);  // copy of the *removed* subscription: must not match
  feed(w.RandomContent(30, 5000, 9000));
  const int64_t new_copy_start = slot * 12;
  feed(new_content);  // copy of the re-added subscription: must match
  feed(w.RandomContent(30, 5000, 9000));
  ASSERT_TRUE(det->Finish().ok());

  bool matched_new = false;
  for (const Match& m : det->matches()) {
    EXPECT_EQ(m.query_id, 7);
    EXPECT_GE(m.end_frame, new_copy_start)
        << "match attributed to the removed subscription's content";
    matched_new = true;
  }
  EXPECT_TRUE(matched_new);
}

}  // namespace
}  // namespace vcd::core
