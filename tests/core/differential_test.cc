/// \file differential_test.cc
/// Differential test of the min-hash engine against the exact Definition-2
/// engine, core::ExactDetector.
///
/// Generator, per seed (20 seeds): 5 queries of 40–69 key frames drawn from
/// a 600-cell vocabulary. Each query is planted twice between background
/// gaps of 60–119 vocabulary key frames, each copy with every frame
/// substituted by a random vocabulary cell with probability 1/10: once
/// contiguous, and once interrupted at its midpoint by one window-aligned
/// basic window of cells outside the vocabulary. Key frames arrive at
/// 2.5/s; K = 800, δ = 0.6, w = 4 s, λ = 2 and no report cooldown.
///
/// For every match of every configuration run here:
///  (a) its similarity equals, as a double, Sketcher::Similarity of the
///      sketch of the cells in its reported span against the query's
///      sketch: the span a match reports is the span its similarity
///      measures;
///  (b) it lies within ε(K) = 2.7/√K of the exact Jaccard of that span.
/// And (c): every Sequential configuration detects, by the paper's
/// position rule, every plant that ExactDetector detects at δ + ε(K).
/// Geometric order tests fewer suffix lengths, which trades recall for
/// speed (paper §IV-A), so (c) does not hold for it. Instead, per seed, all
/// 8 Geometric configurations report one match list: every one tests the
/// same suffixes, each at the min-hash estimate of its span, and pruning
/// drops only pairs that cannot reach δ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/evaluation.h"
#include "core/exact_detector.h"
#include "sketch/jaccard.h"
#include "sketch/minhash.h"
#include "util/rng.h"

namespace vcd::core {
namespace {

using features::CellId;

constexpr int kSeeds = 20;
constexpr int kQueries = 5;
constexpr uint32_t kVocabulary = 600;
constexpr CellId kFirstOutOfVocabulary = 1u << 20;
constexpr double kKeyFps = 2.5;
constexpr int64_t kFramesPerSlot = 12;  ///< GOP 12 at 30 fps
constexpr int kSlotsPerWindow = 10;     ///< w = 4 s at 2.5 key frames/s
constexpr int kK = 800;
constexpr double kDelta = 0.6;
const double kEpsilon = 2.7 / std::sqrt(static_cast<double>(kK));

/// One planted copy: ground truth for the position rule.
struct Plant {
  GroundTruthEntry truth;
  bool interrupted = false;
};

/// One seed's stream: a cell per key-frame slot, plus its queries (query
/// id = index + 1) and plants.
struct Scenario {
  std::vector<std::vector<CellId>> queries;
  std::vector<CellId> stream;
  std::vector<Plant> plants;
};

Scenario Generate(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  const auto vocabulary_cell = [&] {
    return static_cast<CellId>(rng.Uniform(kVocabulary));
  };
  for (int q = 0; q < kQueries; ++q) {
    std::vector<CellId> cells(static_cast<size_t>(rng.UniformInt(40, 69)));
    for (CellId& c : cells) c = vocabulary_cell();
    s.queries.push_back(std::move(cells));
  }
  CellId next_oov = kFirstOutOfVocabulary;
  const auto background = [&] {
    const int64_t n = rng.UniformInt(60, 119);
    for (int64_t i = 0; i < n; ++i) s.stream.push_back(vocabulary_cell());
  };
  for (int q = 0; q < kQueries; ++q) {
    for (bool interrupted : {false, true}) {
      background();
      std::vector<CellId> copy = s.queries[static_cast<size_t>(q)];
      for (CellId& c : copy) {
        if (rng.Uniform(10) == 0) c = vocabulary_cell();
      }
      const size_t begin = s.stream.size();
      // The interruption fills the first whole basic window at or after the
      // copy's midpoint.
      const size_t mid = begin + copy.size() / 2;
      const size_t cut = interrupted
                             ? (mid + kSlotsPerWindow - 1) / kSlotsPerWindow *
                                       kSlotsPerWindow -
                                   begin
                             : copy.size();
      s.stream.insert(s.stream.end(), copy.begin(),
                      copy.begin() + static_cast<std::ptrdiff_t>(cut));
      if (interrupted) {
        for (int i = 0; i < kSlotsPerWindow; ++i) s.stream.push_back(next_oov++);
        s.stream.insert(s.stream.end(),
                        copy.begin() + static_cast<std::ptrdiff_t>(cut), copy.end());
      }
      Plant p;
      p.truth.query_id = q + 1;
      p.truth.begin_frame = static_cast<int64_t>(begin) * kFramesPerSlot;
      p.truth.end_frame = static_cast<int64_t>(s.stream.size() - 1) * kFramesPerSlot;
      p.interrupted = interrupted;
      s.plants.push_back(p);
    }
  }
  background();
  return s;
}

DetectorConfig BaseConfig() {
  DetectorConfig c;
  c.K = kK;
  c.delta = kDelta;
  c.window_seconds = kSlotsPerWindow / kKeyFps;
  c.lambda = 2.0;
  c.report_cooldown_seconds = 0.0;
  return c;
}

double QuerySeconds(const std::vector<CellId>& cells) {
  return static_cast<double>(cells.size()) / kKeyFps;
}

/// Feeds \p s into \p det and returns its matches.
template <typename Det>
std::vector<Match> RunScenario(Det* det, const Scenario& s) {
  for (size_t q = 0; q < s.queries.size(); ++q) {
    EXPECT_TRUE(det->AddQueryCells(static_cast<int>(q) + 1, s.queries[q],
                                   QuerySeconds(s.queries[q]))
                    .ok());
  }
  for (size_t i = 0; i < s.stream.size(); ++i) {
    const auto slot = static_cast<int64_t>(i);
    EXPECT_TRUE(det->ProcessFingerprint(slot * kFramesPerSlot,
                                        static_cast<double>(slot) / kKeyFps,
                                        s.stream[i])
                    .ok());
  }
  EXPECT_TRUE(det->Finish().ok());
  return det->matches();
}

/// True when some match of the plant's query falls inside its position
/// window (EvaluateMatches' rule, §VI).
bool Detected(const std::vector<Match>& matches, const Plant& p) {
  const int64_t w_frames = kSlotsPerWindow * kFramesPerSlot;
  return EvaluateMatches(matches, {p.truth}, w_frames).num_truth_found == 1;
}

struct DiffCase {
  Representation rep;
  CombinationOrder order;
  bool use_index;
  bool enable_pruning;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& p = info.param;
  std::string name = p.rep == Representation::kBit ? "Bit" : "Sketch";
  name += p.order == CombinationOrder::kSequential ? "Seq" : "Geo";
  name += p.use_index ? "Idx" : "NoIdx";
  name += p.enable_pruning ? "Prune" : "NoPrune";
  return name;
}

std::vector<DiffCase> Cases() {
  std::vector<DiffCase> cases;
  for (Representation rep : {Representation::kBit, Representation::kSketch}) {
    for (CombinationOrder order :
         {CombinationOrder::kSequential, CombinationOrder::kGeometric}) {
      for (bool idx : {true, false}) {
        for (bool prune : {true, false}) {
          cases.push_back(DiffCase{rep, order, idx, prune});
        }
      }
    }
  }
  return cases;
}

class ExactDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ExactDifferentialTest, MatchesMeasureTheirSpanAndFindExactCopies) {
  const DiffCase& p = GetParam();
  DetectorConfig config = BaseConfig();
  config.representation = p.rep;
  config.order = p.order;
  config.use_index = p.use_index;
  config.enable_pruning = p.enable_pruning;
  config.validate_state = true;
  DetectorConfig exact_config = BaseConfig();
  exact_config.delta = kDelta + kEpsilon;
  auto family = sketch::MinHashFamily::Create(config.K, config.hash_seed).value();
  const sketch::Sketcher sketcher(&family);

  int64_t matches = 0, not_span_estimate = 0, beyond_epsilon = 0;
  int exact_plants = 0, exact_interrupted = 0, found_plants = 0, missed = 0;
  double max_error = 0.0;
  std::ostringstream first_failures;
  int reported = 0;
  const auto report = [&](int seed, const Match& m, const char* what,
                          double want) {
    if (reported++ >= 5) return;
    first_failures << "\n  seed " << seed << " query " << m.query_id << " frames "
                   << m.start_frame << ".." << m.end_frame << " sim "
                   << m.similarity << ": " << what << " " << want;
  };
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = Generate(static_cast<uint64_t>(seed));
    auto det = CopyDetector::Create(config).value();
    const std::vector<Match> found = RunScenario(det.get(), s);
    std::vector<sketch::Sketch> query_sketches;
    std::vector<sketch::CellIdSet> query_sets;
    for (const std::vector<CellId>& q : s.queries) {
      query_sketches.push_back(sketcher.FromSequence(q));
      query_sets.push_back(sketch::CellIdSet::FromSequence(q));
    }
    // Spans recur across the queries a window relates to; sketch each once.
    std::map<std::pair<int64_t, int64_t>,
             std::pair<sketch::Sketch, sketch::CellIdSet>> spans;
    for (const Match& m : found) {
      ++matches;
      auto it = spans.find({m.start_frame, m.end_frame});
      if (it == spans.end()) {
        const auto first = s.stream.begin() + m.start_frame / kFramesPerSlot;
        const auto last = s.stream.begin() + m.end_frame / kFramesPerSlot + 1;
        const std::vector<CellId> cells(first, last);
        it = spans
                 .emplace(std::make_pair(m.start_frame, m.end_frame),
                          std::make_pair(sketcher.FromSequence(cells),
                                         sketch::CellIdSet::FromSequence(cells)))
                 .first;
      }
      const auto q = static_cast<size_t>(m.query_id - 1);
      const double estimate =
          sketch::Sketcher::Similarity(it->second.first, query_sketches[q]);
      if (m.similarity != estimate) {
        ++not_span_estimate;
        report(seed, m, "(a) min-hash estimate of its span is", estimate);
      }
      const double exact = it->second.second.Jaccard(query_sets[q]);
      max_error = std::max(max_error, std::abs(m.similarity - exact));
      if (std::abs(m.similarity - exact) > kEpsilon) {
        ++beyond_epsilon;
        report(seed, m, "(b) exact Jaccard of its span is", exact);
      }
    }
    auto exact = ExactDetector::Create(exact_config).value();
    const std::vector<Match> exact_found = RunScenario(exact.get(), s);
    for (const Plant& plant : s.plants) {
      if (!Detected(exact_found, plant)) continue;
      ++exact_plants;
      exact_interrupted += plant.interrupted;
      const bool detected = Detected(found, plant);
      found_plants += detected;
      if (p.order == CombinationOrder::kSequential && !detected) {
        ++missed;
        if (reported++ < 5) {
          first_failures << "\n  seed " << seed << " query "
                         << plant.truth.query_id << " plant at frames "
                         << plant.truth.begin_frame << ".."
                         << plant.truth.end_frame
                         << (plant.interrupted ? " (interrupted)" : "")
                         << ": (c) found by ExactDetector, missed here";
        }
      }
    }
  }
  RecordProperty("matches", std::to_string(matches));
  RecordProperty("max_error", std::to_string(max_error));
  RecordProperty("exact_plants", std::to_string(exact_plants));
  RecordProperty("exact_interrupted", std::to_string(exact_interrupted));
  RecordProperty("found_plants", std::to_string(found_plants));
  SCOPED_TRACE(first_failures.str());
  ASSERT_GT(matches, 0);
  EXPECT_EQ(not_span_estimate, 0) << "of " << matches << " matches";
  EXPECT_EQ(beyond_epsilon, 0) << "of " << matches << " matches, max error "
                               << max_error << ", ε = " << kEpsilon;
  // (c) must not hold vacuously, and must cover interrupted copies.
  EXPECT_GT(exact_plants, 0);
  EXPECT_GT(exact_interrupted, 0);
  EXPECT_EQ(missed, 0) << "of " << exact_plants << " plants ExactDetector finds";
}

INSTANTIATE_TEST_SUITE_P(Configs, ExactDifferentialTest,
                         ::testing::ValuesIn(Cases()), CaseName);

/// One match per line, every field, doubles at full precision.
std::string Render(const std::vector<Match>& matches) {
  std::ostringstream out;
  out.precision(17);
  for (const Match& m : matches) {
    out << "q=" << m.query_id << " frames=" << m.start_frame << ".." << m.end_frame
        << " time=" << m.start_time << ".." << m.end_time << " sim=" << m.similarity
        << "\n";
  }
  return out.str();
}

TEST(GeometricDifferentialTest, EveryGeometricConfigReportsOneMatchList) {
  // Every Geometric configuration tests the same suffixes, each at the
  // min-hash estimate of its span, so Bit and Sketch, with and without the
  // index and pruning, must report byte-identical match lists.
  int64_t matches = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const Scenario s = Generate(static_cast<uint64_t>(seed));
    std::string first;
    std::string first_name;
    for (const DiffCase& p : Cases()) {
      if (p.order != CombinationOrder::kGeometric) continue;
      DetectorConfig config = BaseConfig();
      config.representation = p.rep;
      config.order = p.order;
      config.use_index = p.use_index;
      config.enable_pruning = p.enable_pruning;
      auto det = CopyDetector::Create(config).value();
      const std::string rendered = Render(RunScenario(det.get(), s));
      const std::string name =
          CaseName(::testing::TestParamInfo<DiffCase>(p, 0));
      if (first_name.empty()) {
        first = rendered;
        first_name = name;
        matches += std::count(first.begin(), first.end(), '\n');
        continue;
      }
      EXPECT_EQ(rendered, first) << name << " against " << first_name;
    }
  }
  RecordProperty("matches", std::to_string(matches));
  EXPECT_GT(matches, 0);
}

}  // namespace
}  // namespace vcd::core
