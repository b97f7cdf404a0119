/// \file metrics_equivalence_test.cc
/// The detector's *semantic* counters (windows, builds, ORs, prune
/// hits/misses, combines, compares, candidate admissions/expiries, matches)
/// must mirror DetectorStats and stay pinned to recorded values over a fixed
/// schedule — the observability analogue of the detector golden test. Timing
/// histograms are excluded: only wall-clock varies between runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "obs/metrics.h"
#include "qos/qos.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/rng.h"

namespace vcd::core {
namespace {

using features::CellId;

constexpr double kKeyFps = 2.5;

std::vector<CellId> RandomContent(Rng* rng, size_t n, uint32_t lo, uint32_t hi) {
  std::vector<CellId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<CellId>(rng->Uniform(hi - lo)));
  }
  return out;
}

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;
  c.delta = 0.65;
  return c;
}

/// Every counter series of \p registry as name → value.
std::map<std::string, int64_t> Counters(const obs::MetricsRegistry& registry) {
  std::map<std::string, int64_t> counters;
  for (const obs::MetricSnapshot& s : registry.Collect()) {
    if (s.type == obs::MetricType::kCounter) counters[s.name] = s.value;
  }
  return counters;
}

/// Feeds \p ids as consecutive key frames from key-frame slot \p *slot on.
void Feed(CopyDetector* det, const std::vector<CellId>& ids, int64_t* slot) {
  for (CellId id : ids) {
    VCD_CHECK(det->ProcessFingerprint(*slot * 12,
                                      static_cast<double>(*slot) / kKeyFps, id)
                  .ok(),
              "feed");
    ++*slot;
  }
}

/// Runs one fixed schedule with \p config publishing into a private
/// registry, and returns every counter series as name → value.
std::map<std::string, int64_t> RunAndCollect(DetectorConfig config) {
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Rng rng(424242);
  const std::vector<CellId> query1 = RandomContent(&rng, 40, 0, 1000);
  const std::vector<CellId> query2 = RandomContent(&rng, 30, 1000, 2000);

  auto det = CopyDetector::Create(config).value();
  VCD_CHECK(det->AddQueryCells(1, query1, 16.0).ok(), "add q1");
  VCD_CHECK(det->AddQueryCells(2, query2, 12.0).ok(), "add q2");

  int64_t slot = 0;
  Feed(det.get(), RandomContent(&rng, 50, 5000, 9000), &slot);
  Feed(det.get(), query1, &slot);  // embedded copy
  Feed(det.get(), RandomContent(&rng, 25, 5000, 9000), &slot);
  Feed(det.get(), query2, &slot);  // second copy
  Feed(det.get(), RandomContent(&rng, 30, 5000, 9000), &slot);
  VCD_CHECK(det->Finish().ok(), "finish");
  return Counters(registry);
}

class MetricsEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) {
      GTEST_SKIP() << "detector metrics compiled out (build with -DVCD_OBS=ON)";
    }
  }
};

TEST_F(MetricsEquivalenceTest, PooledAndScalarPublishIdenticalCounters) {
  // Recorded while the detector still ran a scalar per-object engine beside
  // the pooled one: both engines published exactly these maps. The Bit map
  // was re-recorded when Sequential order stopped cloning queries into
  // older candidates (DESIGN.md §6): their entries now absorb completion
  // signatures, which Lemma 2 prunes, so ORs, prune hits and expiries
  // changed while builds and matches did not.
  const std::map<std::string, int64_t> bit = {
      {"vcd_detector_bitsig_builds_total", 8},
      {"vcd_detector_bitsig_ors_total", 28},
      {"vcd_detector_candidates_admitted_total", 18},
      {"vcd_detector_candidates_expired_total", 18},
      {"vcd_detector_degraded_windows_total", 0},
      {"vcd_detector_matches_total", 2},
      {"vcd_detector_prune_hits_total", 8},
      {"vcd_detector_prune_misses_total", 28},
      {"vcd_detector_qos_skipped_windows_total", 0},
      {"vcd_detector_sketch_combines_total", 0},
      {"vcd_detector_sketch_compares_total", 0},
      {"vcd_detector_windows_total", 18},
  };
  const std::map<std::string, int64_t> sketch = {
      {"vcd_detector_bitsig_builds_total", 0},
      {"vcd_detector_bitsig_ors_total", 0},
      {"vcd_detector_candidates_admitted_total", 18},
      {"vcd_detector_candidates_expired_total", 10},
      {"vcd_detector_degraded_windows_total", 0},
      {"vcd_detector_matches_total", 2},
      {"vcd_detector_prune_hits_total", 0},
      {"vcd_detector_prune_misses_total", 0},
      {"vcd_detector_qos_skipped_windows_total", 0},
      {"vcd_detector_sketch_combines_total", 108},
      {"vcd_detector_sketch_compares_total", 93},
      {"vcd_detector_windows_total", 18},
  };
  for (const Representation rep : {Representation::kBit, Representation::kSketch}) {
    DetectorConfig config = SmallConfig();
    config.representation = rep;
    // Whole-map comparison: same series names AND same values.
    EXPECT_EQ(RunAndCollect(config), rep == Representation::kBit ? bit : sketch)
        << "counter divergence (representation " << RepresentationName(rep) << ")";
  }
}

TEST_F(MetricsEquivalenceTest, CountersMirrorDetectorStats) {
  // The registry series are per-window delta publications of DetectorStats;
  // after Finish they must agree exactly with the struct the detector
  // reports, for every stat that has a series.
  DetectorConfig config = SmallConfig();
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Rng rng(7);
  const std::vector<CellId> query = RandomContent(&rng, 40, 0, 1000);
  auto det = CopyDetector::Create(config).value();
  ASSERT_TRUE(det->AddQueryCells(1, query, 16.0).ok());
  int64_t slot = 0;
  Feed(det.get(), RandomContent(&rng, 60, 5000, 9000), &slot);
  Feed(det.get(), query, &slot);
  ASSERT_TRUE(det->Finish().ok());

  const std::map<std::string, int64_t> counters = Counters(registry);
  const DetectorStats& st = det->stats();
  EXPECT_EQ(counters.at("vcd_detector_windows_total"), st.windows);
  EXPECT_EQ(counters.at("vcd_detector_degraded_windows_total"),
            st.degraded_windows);
  EXPECT_EQ(counters.at("vcd_detector_bitsig_builds_total"), st.bitsig_builds);
  EXPECT_EQ(counters.at("vcd_detector_bitsig_ors_total"), st.bitsig_ors);
  EXPECT_EQ(counters.at("vcd_detector_sketch_combines_total"),
            st.sketch_combines);
  EXPECT_EQ(counters.at("vcd_detector_sketch_compares_total"),
            st.sketch_compares);
  EXPECT_EQ(counters.at("vcd_detector_prune_hits_total"), st.candidates_pruned);
  EXPECT_EQ(counters.at("vcd_detector_matches_total"),
            static_cast<int64_t>(det->matches().size()));
  // The candidate census balances: everything admitted was either expired
  // or is still live at Finish.
  EXPECT_GE(counters.at("vcd_detector_candidates_admitted_total"),
            counters.at("vcd_detector_candidates_expired_total"));
}

TEST_F(MetricsEquivalenceTest, TakenMatchesStayCounted) {
  // An executor shard takes each frame's matches out of its detector
  // (TakeMatches). The published match counter must still count every match
  // the detector reported: RunAndCollect's schedule, with the first copy's
  // match taken before the second copy plays.
  DetectorConfig config = SmallConfig();
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Rng rng(424242);
  const std::vector<CellId> query1 = RandomContent(&rng, 40, 0, 1000);
  const std::vector<CellId> query2 = RandomContent(&rng, 30, 1000, 2000);
  auto det = CopyDetector::Create(config).value();
  ASSERT_TRUE(det->AddQueryCells(1, query1, 16.0).ok());
  ASSERT_TRUE(det->AddQueryCells(2, query2, 12.0).ok());
  int64_t slot = 0;
  Feed(det.get(), RandomContent(&rng, 50, 5000, 9000), &slot);
  Feed(det.get(), query1, &slot);
  Feed(det.get(), RandomContent(&rng, 25, 5000, 9000), &slot);
  ASSERT_EQ(det->matches().size(), 1u);
  EXPECT_EQ(det->TakeMatches().size(), 1u);
  EXPECT_TRUE(det->matches().empty());
  Feed(det.get(), query2, &slot);
  Feed(det.get(), RandomContent(&rng, 30, 5000, 9000), &slot);
  ASSERT_TRUE(det->Finish().ok());
  EXPECT_EQ(det->matches().size(), 1u);
  EXPECT_EQ(Counters(registry).at("vcd_detector_matches_total"), 2);
}

TEST_F(MetricsEquivalenceTest, RestoreSeedsQosSkippedCounter) {
  // A restored detector publishes post-restore activity only. Five windows
  // with every second one QoS-skipped (windows 1 and 3), a restore into a
  // fresh registry with identity knobs, then one more window: that window
  // must not republish the two pre-restore skips, and — not skipped — it
  // admits its fresh candidate.
  DetectorConfig config = SmallConfig();
  Rng rng(11);
  const std::vector<CellId> query = RandomContent(&rng, 40, 0, 1000);
  const std::vector<CellId> stream = RandomContent(&rng, 61, 5000, 9000);
  const std::vector<CellId> head(stream.begin(), stream.begin() + 51);
  const std::vector<CellId> tail(stream.begin() + 51, stream.end());

  obs::MetricsRegistry first_registry;
  config.metrics = &first_registry;
  auto first = CopyDetector::Create(config).value();
  ASSERT_TRUE(first->AddQueryCells(1, query, 16.0).ok());
  qos::DegradeKnobs knobs;
  knobs.probe_every_n = 2;
  first->SetDegrade(knobs);
  int64_t slot = 0;
  Feed(first.get(), head, &slot);  // slot 50 closes window 4
  ASSERT_EQ(first->stats().windows, 5);
  ASSERT_EQ(first->stats().qos_skipped_windows, 2);
  const DetectorCkptState snapshot = first->ExportCkptState();

  obs::MetricsRegistry registry;
  config.metrics = &registry;
  auto restored = CopyDetector::Create(config).value();
  ASSERT_TRUE(restored->AddQueryCells(1, query, 16.0).ok());
  ASSERT_TRUE(restored->RestoreCkptState(snapshot).ok());
  Feed(restored.get(), tail, &slot);  // slot 60 closes window 5
  ASSERT_EQ(restored->stats().windows, 6);

  const std::map<std::string, int64_t> counters = Counters(registry);
  EXPECT_EQ(counters.at("vcd_detector_windows_total"), 1);
  EXPECT_EQ(counters.at("vcd_detector_qos_skipped_windows_total"), 0);
  EXPECT_EQ(counters.at("vcd_detector_candidates_admitted_total"), 1);
}

}  // namespace
}  // namespace vcd::core
