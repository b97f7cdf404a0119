/// \file portfolio_test.cc
/// The executor's control-plane contract for the query portfolio, at 1 and
/// 2 threads: invalid detector configs and query ids are refused with typed
/// errors, and a query (or a query database) that every stream's detector
/// would refuse is rejected before anything changes — it must never enter
/// the portfolio, where it would fail each later OpenStream and surface as
/// a Drain error on streams that were already open.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/query_store.h"
#include "parallel/executor.h"
#include "util/rng.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using parallel::StreamExecutor;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;
  return c;
}

sketch::Sketch RandomSketch(const DetectorConfig& c, uint64_t seed) {
  Rng rng(seed);
  std::vector<features::CellId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(static_cast<features::CellId>(rng.Uniform(2000)));
  }
  auto fam = sketch::MinHashFamily::Create(c.K, c.hash_seed).value();
  sketch::Sketcher sk(&fam);
  return sk.FromSequence(ids);
}

video::DcFrame TinyFrame(int64_t slot) {
  video::DcFrame f;
  f.blocks_x = 6;
  f.blocks_y = 6;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(36);
  for (size_t i = 0; i < 36; ++i) {
    f.dc[i] = 480.0f * std::sin(0.7f * static_cast<float>(slot) +
                                0.9f * static_cast<float>(i));
  }
  return f;
}

class PortfolioTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<StreamExecutor> Make() {
    core::ParallelConfig pc;
    pc.num_threads = GetParam();
    return StreamExecutor::Create(SmallConfig(), pc).value();
  }

  /// Opens a stream, feeds it a few frames and drains: every portfolio
  /// change issued so far must have reached it without error.
  void ExpectStreamsRun(StreamExecutor* exec) {
    auto sid = exec->OpenStream("s");
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    for (int64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(exec->ProcessKeyFrame(*sid, TinyFrame(i)).ok());
    }
    const Status st = exec->Drain();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
};

TEST_P(PortfolioTest, CreateValidatesConfig) {
  DetectorConfig bad;
  bad.K = 0;
  core::ParallelConfig pc;
  pc.num_threads = GetParam();
  EXPECT_FALSE(StreamExecutor::Create(bad, pc).ok());
  EXPECT_TRUE(StreamExecutor::Create(SmallConfig(), pc).ok());
}

TEST_P(PortfolioTest, QueryIdsAreUniqueAndRemovable) {
  auto exec = Make();
  const auto sk = RandomSketch(SmallConfig(), 5);
  ASSERT_TRUE(exec->AddQuerySketch(1, sk, 40, 16.0).ok());
  EXPECT_EQ(exec->AddQuerySketch(1, sk, 40, 16.0).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(exec->OpenStream("a").ok());
  // Added after a stream opened: lands on it too.
  ASSERT_TRUE(exec->AddQuerySketch(2, RandomSketch(SmallConfig(), 6), 30, 12.0).ok());
  EXPECT_EQ(exec->num_queries(), 2);
  ASSERT_TRUE(exec->RemoveQuery(1).ok());
  EXPECT_EQ(exec->RemoveQuery(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(exec->num_queries(), 1);
  ExpectStreamsRun(exec.get());
}

TEST_P(PortfolioTest, ImportValidatesFamily) {
  auto exec = Make();
  core::QueryDb db;
  db.k = 64;  // mismatched K
  db.hash_seed = SmallConfig().hash_seed;
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kFailedPrecondition);
  db.k = SmallConfig().K;
  db.hash_seed = 999;  // mismatched seed
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kFailedPrecondition);
  db.hash_seed = SmallConfig().hash_seed;
  EXPECT_TRUE(exec->ImportQueries(db).ok());  // empty db, matching family
}

TEST_P(PortfolioTest, InvalidQueryNeverEntersThePortfolio) {
  auto exec = Make();
  ASSERT_TRUE(exec->OpenStream("open-before").ok());
  const auto sk = RandomSketch(SmallConfig(), 5);
  EXPECT_EQ(exec->AddQuerySketch(7, sk, /*length_frames=*/0, /*duration=*/-1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(exec->AddQuerySketch(7, sk, 40, /*duration=*/0).code(),
            StatusCode::kInvalidArgument);
  core::DetectorConfig other_k = SmallConfig();
  other_k.K = 64;
  EXPECT_EQ(exec->AddQuerySketch(7, RandomSketch(other_k, 5), 40, 16.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(exec->num_queries(), 0);
  ExpectStreamsRun(exec.get());
}

TEST_P(PortfolioTest, ImportQueriesIsAllOrNothing) {
  auto exec = Make();
  ASSERT_TRUE(exec->AddQuerySketch(9, RandomSketch(SmallConfig(), 9), 40, 16.0).ok());
  core::QueryDb db;
  db.k = SmallConfig().K;
  db.hash_seed = SmallConfig().hash_seed;
  db.queries.push_back({1, 40, 16.0, RandomSketch(SmallConfig(), 1)});
  db.queries.push_back({2, 0, 16.0, RandomSketch(SmallConfig(), 2)});
  // A zero-length record survives the VCDQ codec; the import refuses it.
  auto bytes = core::SerializeQueries(db);
  ASSERT_TRUE(bytes.ok());
  auto decoded = core::DeserializeQueries(bytes->data(), bytes->size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(exec->ImportQueries(*decoded).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(exec->num_queries(), 1);

  db.queries[1] = {1, 40, 16.0, RandomSketch(SmallConfig(), 2)};  // duplicate id
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(exec->num_queries(), 1);
  db.queries[1] = {9, 40, 16.0, RandomSketch(SmallConfig(), 2)};  // in the portfolio
  EXPECT_EQ(exec->ImportQueries(db).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(exec->num_queries(), 1);

  db.queries[1].id = 2;
  ASSERT_TRUE(exec->ImportQueries(db).ok());
  EXPECT_EQ(exec->num_queries(), 3);
  ExpectStreamsRun(exec.get());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PortfolioTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace vcd
