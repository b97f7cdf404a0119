/// \file equivalence_test.cc
/// The determinism contract of the parallel executor: an identical
/// submission schedule fed through a serial reference (one `CopyDetector`
/// per stream on the calling thread) and through `parallel::StreamExecutor`
/// at every thread count must produce byte-identical per-stream match
/// sequences, an identical global arrival-order match log, and identical
/// per-stream detector stats. On the executor a shard's streams share one
/// query portfolio; the reference gives each stream a detector that owns
/// its own.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "parallel/executor.h"
#include "util/rng.h"

namespace vcd {
namespace {

using core::CopyDetector;
using core::DetectorConfig;
using core::DetectorStats;
using core::StreamMatch;
using parallel::StreamExecutor;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 128;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  return c;
}

/// A key frame whose fingerprint is a deterministic function of \p fill
/// (the spatial profile must vary with fill; Eq. 1 removes offsets).
video::DcFrame TinyFrame(int64_t slot, float fill) {
  video::DcFrame f;
  f.blocks_x = 6;
  f.blocks_y = 6;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(36);
  for (size_t i = 0; i < 36; ++i) {
    f.dc[i] = 8.0f * 60.0f * std::sin(0.7f * fill + 0.9f * static_cast<float>(i));
  }
  return f;
}

std::vector<video::DcFrame> QueryFrames() {
  std::vector<video::DcFrame> frames;
  for (int i = 0; i < 40; ++i) frames.push_back(TinyFrame(i, 100.0f + i));
  return frames;
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

/// Byte-exact encoding of one attributed match (doubles bit-compared).
std::string MatchKey(const StreamMatch& m) {
  char buf[sizeof(int) * 2 + sizeof(int64_t) * 2 + sizeof(double) * 3];
  char* p = buf;
  auto put = [&p](const void* v, size_t n) {
    std::memcpy(p, v, n);
    p += n;
  };
  put(&m.stream_id, sizeof m.stream_id);
  put(&m.match.query_id, sizeof m.match.query_id);
  put(&m.match.start_frame, sizeof m.match.start_frame);
  put(&m.match.end_frame, sizeof m.match.end_frame);
  put(&m.match.start_time, sizeof m.match.start_time);
  put(&m.match.end_time, sizeof m.match.end_time);
  put(&m.match.similarity, sizeof m.match.similarity);
  return std::string(buf, sizeof buf) + m.stream_name;
}

/// Comparable projection of the detector counters of one stream.
struct StatsKey {
  int64_t key_frames, windows, combines, compares, ors, builds, pruned;
  int64_t sig_count;
  double sig_sum;

  bool operator==(const StatsKey&) const = default;
};

StatsKey KeyOf(const DetectorStats& s) {
  return StatsKey{s.key_frames,
                  s.windows,
                  s.sketch_combines,
                  s.sketch_compares,
                  s.bitsig_ors,
                  s.bitsig_builds,
                  s.candidates_pruned,
                  s.signatures_per_window.count(),
                  s.signatures_per_window.sum()};
}

/// Everything one run produces, for exact comparison.
struct RunLog {
  std::vector<std::string> arrival_order;                  ///< global match log
  std::map<std::string, std::vector<std::string>> per_stream;  ///< by stream name
  std::map<std::string, StatsKey> stats;                   ///< pre-close, by name
};

/// The serial oracle: one CopyDetector per stream, driven on the calling
/// thread. A portfolio change reaches every open stream at the point it is
/// issued, and matches are logged in the order the detectors emit them —
/// what "serial-equivalent" means for the executor.
class SerialReference {
 public:
  explicit SerialReference(const DetectorConfig& config) : config_(config) {}

  Result<int> OpenStream(std::string name) {
    auto det = CopyDetector::Create(config_);
    if (!det.ok()) return det.status();
    for (const auto& [id, q] : portfolio_) {
      VCD_RETURN_IF_ERROR(
          (*det)->AddQuerySketch(id, q.sketch, q.length_frames, q.duration_seconds));
    }
    streams_[next_id_] = Stream{std::move(name), std::move(*det), 0};
    return next_id_++;
  }

  Status AddQuery(int id, const std::vector<video::DcFrame>& key_frames,
                  double duration_seconds) {
    auto q = core::PrepareQuery(config_, key_frames, duration_seconds);
    if (!q.ok()) return q.status();
    return AddQuerySketch(id, q->sketch, q->length_frames, q->duration_seconds);
  }

  Status AddQuerySketch(int id, const sketch::Sketch& sk, int length_frames,
                        double duration_seconds) {
    for (auto& [sid, s] : streams_) {
      VCD_RETURN_IF_ERROR(
          s.detector->AddQuerySketch(id, sk, length_frames, duration_seconds));
    }
    portfolio_.emplace_back(id, core::PreparedQuery{length_frames, duration_seconds, sk});
    return Status::OK();
  }

  Status RemoveQuery(int id) {
    std::erase_if(portfolio_, [id](const auto& q) { return q.first == id; });
    for (auto& [sid, s] : streams_) VCD_RETURN_IF_ERROR(s.detector->RemoveQuery(id));
    return Status::OK();
  }

  Status ProcessKeyFrame(int stream_id, const video::DcFrame& frame) {
    Stream& s = streams_.at(stream_id);
    VCD_RETURN_IF_ERROR(s.detector->ProcessKeyFrame(frame));
    Log(stream_id, &s);
    return Status::OK();
  }

  Status CloseStream(int stream_id) {
    Stream& s = streams_.at(stream_id);
    VCD_RETURN_IF_ERROR(s.detector->Finish());
    Log(stream_id, &s);
    streams_.erase(stream_id);
    return Status::OK();
  }

  Result<DetectorStats> StreamStats(int stream_id) const {
    return streams_.at(stream_id).detector->stats();
  }

  const std::vector<StreamMatch>& matches() const { return log_; }

 private:
  struct Stream {
    std::string name;
    std::unique_ptr<CopyDetector> detector;
    size_t logged = 0;
  };

  void Log(int stream_id, Stream* s) {
    const auto& ms = s->detector->matches();
    for (; s->logged < ms.size(); ++s->logged) {
      log_.push_back(StreamMatch{stream_id, s->name, ms[s->logged]});
    }
  }

  DetectorConfig config_;
  std::vector<std::pair<int, core::PreparedQuery>> portfolio_;  ///< in add order
  std::map<int, Stream> streams_;
  int next_id_ = 1;
  std::vector<StreamMatch> log_;
};

/// Drives one fixed schedule against either API. `Api` must provide
/// OpenStream/AddQuery/AddQuerySketch/RemoveQuery/ProcessKeyFrame/
/// CloseStream/StreamStats/matches with executor-compatible signatures;
/// `drain` is a no-op for the serial reference.
template <typename Api, typename DrainFn>
RunLog RunSchedule(Api& api, DrainFn drain) {
  const DetectorConfig config = SmallConfig();
  const int kStreams = 6;
  const int kSlots = 90;

  std::vector<int> ids;
  std::vector<std::string> names;
  for (int s = 0; s < kStreams; ++s) {
    names.push_back("stream-" + std::to_string(s));
    auto id = api.OpenStream(names.back());
    EXPECT_TRUE(id.ok());
    ids.push_back(*id);
  }
  EXPECT_TRUE(api.AddQuery(1, QueryFrames(), 16.0).ok());

  // Even streams carry the copy, at a stream-dependent offset; odd streams
  // carry only background. Mid-schedule portfolio churn exercises the
  // command-queue propagation path.
  for (int slot = 0; slot < kSlots; ++slot) {
    if (slot == 20) {
      EXPECT_TRUE(api.AddQuerySketch(2, RandomSketch(config, 7), 30, 12.0).ok());
    }
    if (slot == 55) {
      EXPECT_TRUE(api.RemoveQuery(2).ok());
      // A seventh stream, carrying the copy from this slot on, joins a
      // shard portfolio that has lost an ordinal; below 8 threads its
      // shard has also built its index already.
      names.push_back("stream-" + std::to_string(kStreams));
      auto id = api.OpenStream(names.back());
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (int s = 0; s < static_cast<int>(ids.size()); ++s) {
      const int offset = 25 + 5 * s;
      float fill;
      if (s % 2 == 0 && slot >= offset && slot < offset + 40) {
        fill = 100.0f + static_cast<float>(slot - offset);  // the copy
      } else {
        fill = -80.0f + static_cast<float>((slot + 3 * s) % 7);  // background
      }
      EXPECT_TRUE(api.ProcessKeyFrame(ids[static_cast<size_t>(s)],
                                      TinyFrame(slot, fill))
                      .ok());
    }
  }

  drain();

  RunLog log;
  for (size_t s = 0; s < ids.size(); ++s) {
    auto stats = api.StreamStats(ids[s]);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) log.stats[names[s]] = KeyOf(*stats);
  }
  for (int id : ids) EXPECT_TRUE(api.CloseStream(id).ok());
  for (const StreamMatch& m : api.matches()) {
    log.arrival_order.push_back(MatchKey(m));
    log.per_stream[m.stream_name].push_back(MatchKey(m));
  }
  return log;
}

RunLog SerialRun() {
  SerialReference ref(SmallConfig());
  return RunSchedule(ref, [] {});
}

RunLog ParallelRun(int threads) {
  core::ParallelConfig pc;
  pc.num_threads = threads;
  pc.queue_capacity = 32;
  pc.backpressure = core::BackpressurePolicy::kBlock;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  return RunSchedule(*exec, [&] { EXPECT_TRUE(exec->Drain().ok()); });
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, ParallelMatchesSerialByteExactly) {
  const RunLog serial = SerialRun();
  // The schedule must actually produce matches, or the test is vacuous.
  ASSERT_FALSE(serial.arrival_order.empty());
  ASSERT_GE(serial.per_stream.size(), 4u);
  ASSERT_EQ(serial.per_stream.count("stream-6"), 1u) << "the late stream must match";

  const RunLog par = ParallelRun(GetParam());
  EXPECT_EQ(par.per_stream, serial.per_stream)
      << "per-stream match sequences differ at " << GetParam() << " threads";
  EXPECT_EQ(par.arrival_order, serial.arrival_order)
      << "global arrival order differs at " << GetParam() << " threads";
  EXPECT_EQ(par.stats.size(), serial.stats.size());
  for (const auto& [name, key] : serial.stats) {
    ASSERT_TRUE(par.stats.count(name)) << name;
    EXPECT_TRUE(par.stats.at(name) == key) << "detector stats differ on " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EquivalenceTest,
                         ::testing::Values(1, 2, 4, 8));

/// Determinism across repeated parallel runs at the same thread count — the
/// merge must not leak scheduling nondeterminism into the result.
TEST(EquivalenceTest, ParallelRunsAreReproducible) {
  const RunLog a = ParallelRun(4);
  const RunLog b = ParallelRun(4);
  EXPECT_EQ(a.arrival_order, b.arrival_order);
  EXPECT_EQ(a.per_stream, b.per_stream);
}

}  // namespace
}  // namespace vcd
