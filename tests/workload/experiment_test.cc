#include "workload/experiment.h"

#include <gtest/gtest.h>

namespace vcd::workload {
namespace {

DatasetOptions SmallOptions() {
  DatasetOptions o;
  o.num_shorts = 3;
  o.min_short_seconds = 20;
  o.max_short_seconds = 40;
  o.total_seconds = 420;
  o.seed = 21;
  return o;
}

TEST(ExperimentTest, WindowFrames) {
  EXPECT_EQ(WindowFrames(5.0, 29.97), 150);
  EXPECT_EQ(WindowFrames(1.0, 25.0), 25);
}

TEST(ExperimentTest, SubscribeAllQueries) {
  auto ds = Dataset::Build(SmallOptions()).value();
  auto det = core::CopyDetector::Create(core::DetectorConfig()).value();
  ASSERT_TRUE(SubscribeQueries(ds, det.get()).ok());
  EXPECT_EQ(det->ExportQueries().size(), 3u);
}

TEST(ExperimentTest, SubscribeSubset) {
  auto ds = Dataset::Build(SmallOptions()).value();
  auto det = core::CopyDetector::Create(core::DetectorConfig()).value();
  ASSERT_TRUE(SubscribeQueries(ds, det.get(), 2).ok());
  EXPECT_EQ(det->ExportQueries().size(), 2u);
}

TEST(ExperimentTest, RunDetectorOnVs1FindsEverything) {
  auto ds = Dataset::Build(SmallOptions()).value();
  auto det = core::CopyDetector::Create(core::DetectorConfig()).value();
  ASSERT_TRUE(SubscribeQueries(ds, det.get()).ok());
  StreamData stream = ds.BuildStream(StreamVariant::kVS1);
  auto run = RunDetector(det.get(), stream);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->cpu_seconds, 0.0);
  EXPECT_DOUBLE_EQ(run->eval.pr.recall, 1.0);
  EXPECT_DOUBLE_EQ(run->eval.pr.precision, 1.0);
  EXPECT_EQ(run->stats.key_frames,
            static_cast<int64_t>(stream.key_frames.size()));
}

TEST(ExperimentTest, RunDetectorIsRepeatable) {
  auto ds = Dataset::Build(SmallOptions()).value();
  auto det = core::CopyDetector::Create(core::DetectorConfig()).value();
  ASSERT_TRUE(SubscribeQueries(ds, det.get()).ok());
  StreamData stream = ds.BuildStream(StreamVariant::kVS2);
  auto a = RunDetector(det.get(), stream);
  auto b = RunDetector(det.get(), stream);  // ResetStream inside
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->num_matches, b->num_matches);
  EXPECT_EQ(a->eval.num_correct, b->eval.num_correct);
}

TEST(ExperimentTest, SeqBaselineDetectsVs1) {
  auto ds = Dataset::Build(SmallOptions()).value();
  StreamData stream = ds.BuildStream(StreamVariant::kVS1);
  baseline::SeqMatcherOptions opts;
  opts.distance_threshold = 0.08;
  opts.slide_gap = 2;
  auto run = RunSeqBaseline(ds, stream, opts, features::FeatureOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->eval.pr.recall, 0.5);
}

TEST(ExperimentTest, SeqBaselineMissesVs2Reordered) {
  auto ds = Dataset::Build(SmallOptions()).value();
  StreamData stream = ds.BuildStream(StreamVariant::kVS2);
  baseline::SeqMatcherOptions opts;
  opts.distance_threshold = 0.08;
  opts.slide_gap = 2;
  auto run = RunSeqBaseline(ds, stream, opts, features::FeatureOptions());
  ASSERT_TRUE(run.ok());
  // Temporal reordering defeats rigid alignment (the paper's Fig. 14).
  EXPECT_LT(run->eval.pr.recall, 0.5);
}

TEST(ExperimentTest, WarpBaselineRuns) {
  auto ds = Dataset::Build(SmallOptions()).value();
  StreamData stream = ds.BuildStream(StreamVariant::kVS2);
  baseline::WarpMatcherOptions opts;
  opts.warp_width = 5;
  opts.slide_gap = 4;
  opts.distance_threshold = 0.08;
  auto run = RunWarpBaseline(ds, stream, opts, features::FeatureOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->cpu_seconds, 0.0);
}

}  // namespace
}  // namespace vcd::workload
