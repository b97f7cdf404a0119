/// \file detector_golden_test.cc
/// Byte-identity pin of the detector's window step against a recorded output.
///
/// One fixed schedule (two queries up front, one removed mid-stream and its
/// id re-added with different content, two embedded copies) runs in all 16
/// configurations: Bit/Sketch × Sequential/Geometric × index on/off ×
/// pruning on/off. Every Match field (doubles at %.17g), every DetectorStats
/// counter and (n, sum, max) of the three RunningStats are compared with
/// the configuration's block of tests/data/detector_golden.txt. Every run
/// has `validate_state` on, so ValidateState also sweeps each window.
///
/// The blocks were recorded while the detector still carried a second,
/// scalar per-object engine, by a recorder that asserted both engines
/// rendered the same bytes (apart from pool_slots_per_window, which the
/// scalar engine left at 0). The suite keeps the names it had while it ran
/// that comparison live.
///
/// On a mismatch the kernel-ISA test writes its full rendering to the gtest
/// temp dir and names the file; after an intended output change, review
/// that diff and copy the file over tests/data/detector_golden.txt.

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/detector.h"
#include "sketch/kernels/kernels.h"
#include "util/logging.h"
#include "util/rng.h"

#ifndef VCD_TEST_DATA_DIR
#error "VCD_TEST_DATA_DIR must name tests/data"
#endif

namespace vcd::core {
namespace {

using features::CellId;

constexpr double kKeyFps = 2.5;  // key-frame slots per second (GOP 12 @30fps)

DetectorConfig BaseConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;  // 10 key frames per window
  c.delta = 0.65;
  return c;
}

std::vector<CellId> RandomContent(Rng* rng, size_t n, uint32_t lo, uint32_t hi) {
  std::vector<CellId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<CellId>(rng->Uniform(hi - lo)));
  }
  return out;
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

/// One fixed schedule: two queries up front, a third subscribed mid-stream,
/// one removed and its id re-added with different content (ordinal reuse),
/// with two copies embedded in the stream. Returns the rendered output.
std::string RunSchedule(DetectorConfig config) {
  config.validate_state = true;  // full state sweep after every window
  Rng rng(20080615);
  const std::vector<CellId> query1 = RandomContent(&rng, 40, 0, 1000);
  const std::vector<CellId> query2 = RandomContent(&rng, 30, 1000, 2000);
  const std::vector<CellId> query3 = RandomContent(&rng, 35, 2000, 3000);

  auto det = CopyDetector::Create(config).value();
  VCD_CHECK(det->AddQueryCells(1, query1, 16.0).ok(), "add q1");
  VCD_CHECK(det->AddQueryCells(2, query2, 12.0).ok(), "add q2");

  int64_t slot = 0;
  const auto feed = [&](const std::vector<CellId>& ids) {
    for (CellId id : ids) {
      VCD_CHECK(det->ProcessFingerprint(slot * 12,
                                        static_cast<double>(slot) / kKeyFps, id)
                    .ok(),
                "feed");
      ++slot;
    }
  };

  feed(RandomContent(&rng, 60, 5000, 9000));  // background
  feed(query1);                               // copy of q1
  feed(RandomContent(&rng, 30, 5000, 9000));
  // Portfolio churn mid-stream: drop q2, re-use its id for new content.
  VCD_CHECK(det->RemoveQuery(2).ok(), "remove q2");
  VCD_CHECK(det->AddQueryCells(2, query3, 14.0).ok(), "re-add id 2");
  feed(RandomContent(&rng, 30, 5000, 9000));
  feed(query3);  // copy of the re-added query
  feed(RandomContent(&rng, 40, 5000, 9000));
  VCD_CHECK(det->Finish().ok(), "finish");
  VCD_CHECK(det->ValidateState().ok(), "validate");

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

struct PooledEquivCase {
  Representation rep;
  CombinationOrder order;
  bool use_index;
  bool enable_pruning;
};

std::vector<PooledEquivCase> AllCases() {
  std::vector<PooledEquivCase> cases;
  for (Representation rep : {Representation::kBit, Representation::kSketch}) {
    for (CombinationOrder order :
         {CombinationOrder::kSequential, CombinationOrder::kGeometric}) {
      for (bool idx : {true, false}) {
        for (bool prune : {true, false}) {
          cases.push_back(PooledEquivCase{rep, order, idx, prune});
        }
      }
    }
  }
  return cases;
}

/// The configuration's golden block: a header line, then its output.
std::string RenderCase(const PooledEquivCase& p) {
  DetectorConfig config = BaseConfig();
  config.representation = p.rep;
  config.order = p.order;
  config.use_index = p.use_index;
  config.enable_pruning = p.enable_pruning;
  return Format("config rep=%s order=%s index=%d pruning=%d\n",
                RepresentationName(p.rep), CombinationOrderName(p.order),
                p.use_index ? 1 : 0, p.enable_pruning ? 1 : 0) +
         RunSchedule(config);
}

std::string RenderAll() {
  std::string out;
  for (const PooledEquivCase& p : AllCases()) out += RenderCase(p);
  return out;
}

std::string GoldenPath() {
  return std::string(VCD_TEST_DATA_DIR) + "/detector_golden.txt";
}

std::string ReadGolden() {
  std::ifstream in(GoldenPath());
  std::stringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

/// The block of \p golden that starts with \p header's first line, up to
/// the next "config " line; empty when absent.
std::string GoldenBlock(const std::string& golden, const std::string& header) {
  const std::string first = header.substr(0, header.find('\n') + 1);
  const size_t at = golden.find(first);
  if (at == std::string::npos) return "";
  const size_t end = golden.find("\nconfig ", at);
  return golden.substr(at, end == std::string::npos ? std::string::npos
                                                    : end + 1 - at);
}

class PooledEquivalenceTest : public ::testing::TestWithParam<PooledEquivCase> {};

TEST_P(PooledEquivalenceTest, PooledMatchesScalarByteExactly) {
  const std::string actual = RenderCase(GetParam());
  ASSERT_NE(actual.find("\nmatch "), std::string::npos)
      << "schedule must produce matches";
  EXPECT_EQ(actual, GoldenBlock(ReadGolden(), actual));
}

std::string CaseName(const ::testing::TestParamInfo<PooledEquivCase>& info) {
  const PooledEquivCase& p = info.param;
  std::string name = p.rep == Representation::kBit ? "Bit" : "Sketch";
  name += p.order == CombinationOrder::kSequential ? "Seq" : "Geo";
  name += p.use_index ? "Idx" : "NoIdx";
  name += p.enable_pruning ? "Prune" : "NoPrune";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PooledEquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// The kernel-ISA axis: every kernel backend this host supports must render
/// all 16 configurations byte-identically to the golden, not just the
/// default dispatch pick. `ForceIsa` only affects pools built afterwards, so
/// each iteration re-runs every schedule with freshly created detectors.
/// (CI additionally forces levels process-wide via VCD_KERNEL_ISA matrix
/// legs; this covers whatever the host has in one run.)
TEST(PooledKernelIsaEquivalenceTest, EveryIsaMatchesScalarByteExactly) {
  namespace sk = vcd::sketch::kernels;
  const std::string original = sk::ActiveOps().name;
  const std::string golden = ReadGolden();
  for (sk::Isa isa : sk::SupportedIsas()) {
    const char* name = sk::IsaName(isa);
    ASSERT_TRUE(sk::ForceIsa(name).ok());
    const std::string actual = RenderAll();
    if (actual == golden) continue;
    const std::string dump =
        ::testing::TempDir() + "detector_golden." + name + ".actual.txt";
    std::ofstream(dump) << actual;
    ADD_FAILURE() << name << ": output differs from " << GoldenPath()
                  << "; full output written to " << dump;
  }
  ASSERT_TRUE(sk::ForceIsa(original).ok());
}

}  // namespace
}  // namespace vcd::core
