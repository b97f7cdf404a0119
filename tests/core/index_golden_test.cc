/// \file index_golden_test.cc
/// Byte-identity pin of the indexed detector against a recorded output.
///
/// Two seeded `workload::Dataset` VS2 streams (shared-vocabulary and
/// distinct-content regimes) run through the Hash-Query-indexed detector in
/// all 8 configurations (Bit/Sketch × Sequential/Geometric × pruning
/// on/off), with one RemoveQuery + AddQuerySketch every 40 key frames that
/// cycles removed ids back in. Every Match field (doubles at
/// %.17g) and every DetectorStats counter is compared line by line with
/// tests/data/index_golden.txt. Every run has `validate_state` on, so
/// ValidateState also sweeps each window through the churn.
///
/// On a mismatch the test writes its full output next to the gtest temp
/// dir and names the file; after an intended output change, review that
/// diff and copy the file over tests/data/index_golden.txt.

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/detector.h"
#include "workload/dataset.h"

#ifndef VCD_TEST_DATA_DIR
#error "VCD_TEST_DATA_DIR must name tests/data"
#endif

namespace vcd::core {
namespace {

using QueryTuple = std::tuple<int, int, double, sketch::Sketch>;

constexpr int kChurnEveryKeyFrames = 40;
constexpr int kInitialQueries = 8;  ///< the rest start as churn spares

workload::DatasetOptions Options(bool distinct) {
  workload::DatasetOptions o;
  o.num_shorts = 6;
  o.num_query_only = 4;
  o.min_short_seconds = 20;
  o.max_short_seconds = 40;
  o.num_base_films = 2;
  o.total_seconds = 600;
  o.seed = 20080407;
  o.distinct_content = distinct;
  return o;
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

std::string StatsLine(const char* name, const RunningStats& s) {
  return Format("%s n=%lld sum=%.17g max=%.17g\n", name,
                static_cast<long long>(s.count()), s.sum(), s.max());
}

/// Runs one configuration over one stream and renders its output.
std::string RunConfig(const DetectorConfig& config,
                      const std::vector<QueryTuple>& queries,
                      const std::vector<video::DcFrame>& stream) {
  auto det = CopyDetector::Create(config).value();
  const auto add = [&](size_t i) {
    const auto& [id, length, duration, sk] = queries[i];
    EXPECT_TRUE(det->AddQuerySketch(id, sk, length, duration).ok()) << "add " << id;
  };
  std::vector<size_t> active;
  std::deque<size_t> spares;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i < kInitialQueries) {
      add(i);
      active.push_back(i);
    } else {
      spares.push_back(i);
    }
  }
  int churn_step = 0;
  for (size_t f = 0; f < stream.size(); ++f) {
    EXPECT_TRUE(det->ProcessKeyFrame(stream[f]).ok());
    if ((f + 1) % kChurnEveryKeyFrames != 0) continue;
    // Remove one active query (cycling through the list) and subscribe the
    // oldest spare; removed ids queue up as spares, so they come back.
    const size_t pick = static_cast<size_t>(churn_step++) % active.size();
    const size_t gone = active[pick];
    EXPECT_TRUE(det->RemoveQuery(std::get<0>(queries[gone])).ok());
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    spares.push_back(gone);
    const size_t next = spares.front();
    spares.pop_front();
    add(next);
    active.push_back(next);
  }
  EXPECT_TRUE(det->Finish().ok());

  std::string out;
  for (const Match& m : det->matches()) {
    out += Format("match q=%d frames=%lld..%lld time=%.17g..%.17g sim=%.17g\n",
                  m.query_id, static_cast<long long>(m.start_frame),
                  static_cast<long long>(m.end_frame), m.start_time, m.end_time,
                  m.similarity);
  }
  const DetectorStats& s = det->stats();
  out += Format(
      "stats key_frames=%lld windows=%lld sketch_combines=%lld "
      "sketch_compares=%lld bitsig_ors=%lld bitsig_builds=%lld "
      "candidates_pruned=%lld degraded_frames=%lld degraded_windows=%lld "
      "out_of_order_frames=%lld qos_skipped_windows=%lld\n",
      static_cast<long long>(s.key_frames), static_cast<long long>(s.windows),
      static_cast<long long>(s.sketch_combines),
      static_cast<long long>(s.sketch_compares),
      static_cast<long long>(s.bitsig_ors), static_cast<long long>(s.bitsig_builds),
      static_cast<long long>(s.candidates_pruned),
      static_cast<long long>(s.degraded_frames),
      static_cast<long long>(s.degraded_windows),
      static_cast<long long>(s.out_of_order_frames),
      static_cast<long long>(s.qos_skipped_windows));
  out += StatsLine("signatures_per_window", s.signatures_per_window);
  out += StatsLine("candidates_per_window", s.candidates_per_window);
  out += StatsLine("pool_slots_per_window", s.pool_slots_per_window);
  return out;
}

/// Renders every configuration over both content regimes.
std::string RenderAll() {
  std::string out;
  for (bool distinct : {false, true}) {
    auto ds = workload::Dataset::Build(Options(distinct)).value();
    const auto stream = ds.BuildStream(workload::StreamVariant::kVS2).key_frames;
    // Query sketches come from the detector's own fingerprint + sketch
    // path, then enter every run through AddQuerySketch.
    auto sketcher = CopyDetector::Create(DetectorConfig{}).value();
    for (int qi = 0; qi < ds.num_queries(); ++qi) {
      EXPECT_TRUE(
          sketcher->AddQuery(ds.query_spec(qi).id, ds.QueryKeyFrames(qi)).ok());
    }
    const std::vector<QueryTuple> queries = sketcher->ExportQueries();
    for (auto rep : {Representation::kBit, Representation::kSketch}) {
      for (auto order : {CombinationOrder::kSequential, CombinationOrder::kGeometric}) {
        for (bool pruning : {true, false}) {
          DetectorConfig c;
          c.representation = rep;
          c.order = order;
          c.enable_pruning = pruning;
          c.validate_state = true;
          out += Format("config regime=%s rep=%s order=%s pruning=%d\n",
                        distinct ? "distinct" : "shared", RepresentationName(rep),
                        CombinationOrderName(order), pruning ? 1 : 0);
          out += RunConfig(c, queries, stream);
        }
      }
    }
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(IndexGoldenTest, OutputMatchesRecordedBytes) {
  const std::string actual = RenderAll();
  const std::string golden_path = std::string(VCD_TEST_DATA_DIR) + "/index_golden.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  const std::string dump = ::testing::TempDir() + "index_golden.actual.txt";
  std::ofstream(dump) << actual;
  const auto want = Lines(golden.str());
  const auto got = Lines(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "output differs from " << golden_path << " at line " << i + 1
                << "\n  want: " << (i < want.size() ? want[i] : "<end>")
                << "\n  got:  " << (i < got.size() ? got[i] : "<end>")
                << "\nfull output written to " << dump;
}

}  // namespace
}  // namespace vcd::core
