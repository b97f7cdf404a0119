/// \file fault_matrix_test.cc
/// The fault matrix: every faultfx injection site crossed with every
/// corruption policy, asserting the resilience contract of DESIGN.md §12 —
/// the process never crashes, quarantined streams are readmitted after
/// backoff, failed-over shards recover, and streams the fault does not
/// target produce byte-identical match sequences to a no-fault run.
///
/// These tests only run in a `-DVCD_FAULTFX=ON` build (tools/check.sh
/// faultfx / faultfx-tsan / faultfx-asan); elsewhere they GTEST_SKIP.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/match.h"
#include "parallel/executor.h"
#include "util/faultfx.h"
#include "video/codec.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace vcd {
namespace {

using core::CorruptionPolicy;
using core::DetectorConfig;
using core::ParallelConfig;
using parallel::ExecutorStats;
using parallel::StreamExecutor;
using parallel::StreamHealth;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  return c;
}

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

/// One stream's matches in arrival order, every field significant.
struct MatchKey {
  int query_id;
  double start_time;
  double end_time;
  double similarity;
  bool operator==(const MatchKey& o) const {
    return query_id == o.query_id && start_time == o.start_time &&
           end_time == o.end_time && similarity == o.similarity;
  }
};

using MatchLog = std::map<std::string, std::vector<MatchKey>>;

struct ScenarioResult {
  MatchLog matches;
  ExecutorStats stats;
  Status drain_status;
  std::map<int, StreamHealth> final_health;  // stream id → health pre-close
};

constexpr int kStreams = 4;
constexpr int kNoiseFrames = 25;
constexpr int kCopyFrames = 40;

ParallelConfig TestParallelConfig(CorruptionPolicy policy, int watchdog_ms) {
  ParallelConfig pc;
  pc.num_threads = 2;
  pc.queue_capacity = 64;
  pc.backpressure = core::BackpressurePolicy::kBlock;
  pc.on_corruption = policy;
  pc.degraded_after_faults = 2;
  pc.quarantine_after_faults = 4;
  pc.recover_after_frames = 4;
  pc.quarantine_backoff_frames = 8;
  pc.quarantine_backoff_max_frames = 16;
  pc.watchdog_ms = watchdog_ms;
  return pc;
}

/// The per-round frame fill of stream index \p s: 25 rounds of noise, then
/// one embedded copy of query 1.
float ScenarioFill(int round, int s) {
  return round < kNoiseFrames
             ? -80.0f + static_cast<float>((round + s) % 5)
             : 100.0f + static_cast<float>(round - kNoiseFrames);
}

/// Runs the canonical 4-stream scenario (each stream carries one embedded
/// copy of query 1) under whatever faults are currently armed. Frames are
/// fed round-robin from this thread, so the submission schedule — and with
/// it every uninjected stream's match sequence — is deterministic.
ScenarioResult RunScenario(CorruptionPolicy policy) {
  ScenarioResult r;
  auto exec =
      StreamExecutor::Create(SmallConfig(), TestParallelConfig(policy, 0))
          .value();
  EXPECT_TRUE(exec->AddQuery(1, QueryFrames(), 16.0).ok());
  std::vector<int> sids;
  for (int s = 0; s < kStreams; ++s) {
    sids.push_back(exec->OpenStream("stream-" + std::to_string(s)).value());
  }
  for (int i = 0; i < kNoiseFrames + kCopyFrames; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      EXPECT_TRUE(
          exec->ProcessKeyFrame(sids[static_cast<size_t>(s)],
                                TinyFrame(i, ScenarioFill(i, s)))
              .ok());
    }
  }
  // Health and stats are snapshotted before the closes tear the per-stream
  // detectors down (AggregateDetectorStats covers installed streams only).
  for (int sid : sids) {
    auto h = exec->HealthOf(sid);
    if (h.ok()) r.final_health[sid] = *h;
  }
  r.stats = exec->Stats();
  for (int sid : sids) {
    const Status st = exec->CloseStream(sid);
    EXPECT_TRUE(st.ok()) << "close " << sid << ": " << st.ToString();
  }
  r.drain_status = exec->Drain();
  for (const core::StreamMatch& m : exec->matches()) {
    r.matches[m.stream_name].push_back(MatchKey{m.match.query_id,
                                                m.match.start_time,
                                                m.match.end_time,
                                                m.match.similarity});
  }
  return r;
}

int64_t SumField(const ExecutorStats& s, int64_t parallel::ShardStats::*f) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.*f;
  return n;
}

/// Submitted frames must land in exactly one accounting bucket.
void ExpectFramePartition(const ExecutorStats& s) {
  EXPECT_EQ(SumField(s, &parallel::ShardStats::frames_processed) +
                SumField(s, &parallel::ShardStats::frames_rejected) +
                SumField(s, &parallel::ShardStats::frames_quarantined) +
                SumField(s, &parallel::ShardStats::frames_failed) +
                s.frames_dropped_backpressure + s.frames_dropped_failover,
            s.frames_submitted);
}

/// Streams other than `stream-<injected>` must match the baseline exactly.
void ExpectOthersIdentical(const MatchLog& baseline, const MatchLog& got,
                           int injected) {
  for (int s = 0; s < kStreams; ++s) {
    if (s == injected) continue;
    const std::string name = "stream-" + std::to_string(s);
    const auto bit = baseline.find(name);
    const auto git = got.find(name);
    ASSERT_NE(bit, baseline.end()) << name << " matched nothing in baseline";
    ASSERT_NE(git, got.end()) << name << " lost its matches under fault";
    EXPECT_EQ(bit->second.size(), git->second.size()) << name;
    for (size_t i = 0; i < bit->second.size() && i < git->second.size(); ++i) {
      EXPECT_TRUE(bit->second[i] == git->second[i])
          << name << " match " << i << " diverged";
    }
  }
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!faultfx::kEnabled) {
      GTEST_SKIP() << "faultfx sites compiled out (build with -DVCD_FAULTFX=ON)";
    }
    faultfx::Injector::Instance().Reset();
  }
  void TearDown() override {
    if (faultfx::kEnabled) faultfx::Injector::Instance().Reset();
  }
};

// The stream the executor-level fault plans target (stream-1; shard 0 holds
// sids 1 and 3, shard 1 holds sids 2 and 4 under 2 threads).
constexpr uint64_t kTargetSid = 2;
constexpr int kTargetIndex = 1;  // its "stream-<i>" index

TEST_F(FaultMatrixTest, InjectorIsDeterministicAndKeyed) {
  faultfx::Plan plan;
  plan.seed = 7;
  plan.probability = 0.5;
  plan.key_filter = 3;
  std::vector<bool> first;
  {
    faultfx::ScopedFault fault(faultfx::Site::kDecodeError, plan);
    for (int i = 0; i < 64; ++i) {
      first.push_back(faultfx::ShouldFire(faultfx::Site::kDecodeError, 3));
      // A different key never fires through a key-filtered plan...
      EXPECT_FALSE(faultfx::ShouldFire(faultfx::Site::kDecodeError, 4));
      // ...and other sites are untouched.
      EXPECT_FALSE(faultfx::ShouldFire(faultfx::Site::kClockSkew, 3));
    }
  }
  EXPECT_FALSE(faultfx::ShouldFire(faultfx::Site::kDecodeError, 3));  // disarmed
  faultfx::Injector::Instance().Reset();
  {
    faultfx::ScopedFault fault(faultfx::Site::kDecodeError, plan);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(faultfx::ShouldFire(faultfx::Site::kDecodeError, 3),
                static_cast<bool>(first[static_cast<size_t>(i)]))
          << "fire decision " << i << " not reproducible";
      (void)faultfx::ShouldFire(faultfx::Site::kDecodeError, 4);
      (void)faultfx::ShouldFire(faultfx::Site::kClockSkew, 3);
    }
  }
  int fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
}

TEST_F(FaultMatrixTest, SkipFirstAndMaxFiresBoundTheWindow) {
  faultfx::Plan plan;
  plan.seed = 11;
  plan.skip_first = 10;
  plan.max_fires = 3;
  faultfx::ScopedFault fault(faultfx::Site::kQueueOverflow, plan);
  int fires = 0;
  for (int i = 0; i < 50; ++i) {
    if (faultfx::ShouldFire(faultfx::Site::kQueueOverflow, 1)) {
      EXPECT_GE(i, 10);
      ++fires;
    }
  }
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(faultfx::Injector::Instance().fires(faultfx::Site::kQueueOverflow), 3);
  EXPECT_EQ(faultfx::Injector::Instance().hits(faultfx::Site::kQueueOverflow), 50);
}

/// Decoder site: injected bitstream corruption is kCorruption in strict
/// mode and a resync (not an error) in resync mode.
TEST_F(FaultMatrixTest, BitstreamCorruptionSite) {
  video::SceneModel model = video::SceneModel::Generate(21, 6.0);
  video::RenderOptions ro;
  ro.width = 64;
  ro.height = 48;
  ro.fps = 10.0;
  auto clip = video::RenderVideo(model, 0.0, 1.2, ro);
  ASSERT_TRUE(clip.ok());
  video::CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.gop_size = 4;
  p.quantizer = 3;
  auto bytes = video::Encoder::EncodeVideo(*clip, p);
  ASSERT_TRUE(bytes.ok());

  faultfx::Plan plan;
  plan.seed = 5;
  plan.skip_first = 1;  // let the first frame header through
  plan.max_fires = 1;
  {
    faultfx::ScopedFault fault(faultfx::Site::kBitstreamCorruption, plan);
    video::PartialDecoder pd;
    ASSERT_TRUE(pd.Open(bytes->data(), bytes->size()).ok());
    video::DcFrame f;
    ASSERT_TRUE(pd.NextKeyFrame(&f).ok());
    Status st;
    while ((st = pd.NextKeyFrame(&f)).ok()) {
    }
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_TRUE(st.ToString().find("injected") != std::string::npos)
        << st.ToString();
  }
  faultfx::Injector::Instance().Reset();
  {
    faultfx::ScopedFault fault(faultfx::Site::kBitstreamCorruption, plan);
    video::PartialDecoder pd;
    pd.set_resync_on_corruption(true);
    ASSERT_TRUE(pd.Open(bytes->data(), bytes->size()).ok());
    video::DcFrame f;
    int emitted = 0;
    while (pd.NextKeyFrame(&f).ok()) ++emitted;
    EXPECT_GE(emitted, 2);  // the stream survives the injected tear
    EXPECT_GE(pd.stats().resync_scans, 1);
  }
}

/// Site × policy cells for the executor-level sites. Each cell arms one
/// fault against one stream (or one shard) and checks the blast radius.
TEST_F(FaultMatrixTest, DecodeErrorMatrix) {
  const ScenarioResult baseline = RunScenario(CorruptionPolicy::kSkip);
  ASSERT_TRUE(baseline.drain_status.ok());
  for (const auto& [sid, h] : baseline.final_health) {
    EXPECT_EQ(h, StreamHealth::kHealthy);
  }
  ASSERT_EQ(baseline.matches.size(), static_cast<size_t>(kStreams));

  for (const CorruptionPolicy policy :
       {CorruptionPolicy::kSkip, CorruptionPolicy::kQuarantine,
        CorruptionPolicy::kFail}) {
    faultfx::Injector::Instance().Reset();
    faultfx::Plan plan;
    plan.seed = 42;
    plan.key_filter = kTargetSid;
    plan.skip_first = 10;
    plan.max_fires = 8;
    faultfx::ScopedFault fault(faultfx::Site::kDecodeError, plan);
    const ScenarioResult r = RunScenario(policy);
    ExpectOthersIdentical(baseline.matches, r.matches, kTargetIndex);
    ExpectFramePartition(r.stats);
    switch (policy) {
      case CorruptionPolicy::kSkip:
        EXPECT_TRUE(r.drain_status.ok()) << r.drain_status.ToString();
        EXPECT_EQ(SumField(r.stats, &parallel::ShardStats::frames_degraded), 8);
        EXPECT_EQ(SumField(r.stats, &parallel::ShardStats::frames_quarantined), 0);
        break;
      case CorruptionPolicy::kQuarantine: {
        EXPECT_TRUE(r.drain_status.ok()) << r.drain_status.ToString();
        // 4 faults → quarantine (8 discards), readmit, 4 more faults →
        // re-quarantine with doubled backoff (16 discards), then recover.
        int64_t events = 0;
        for (const auto& sh : r.stats.shards) events += sh.quarantine_events;
        EXPECT_EQ(events, 2);
        EXPECT_EQ(SumField(r.stats, &parallel::ShardStats::frames_quarantined),
                  24);
        const auto h = r.final_health.find(static_cast<int>(kTargetSid));
        ASSERT_NE(h, r.final_health.end());
        EXPECT_EQ(h->second, StreamHealth::kHealthy)
            << "quarantined stream was not readmitted and recovered";
        break;
      }
      case CorruptionPolicy::kFail: {
        EXPECT_EQ(r.drain_status.code(), StatusCode::kCorruption);
        const auto h = r.final_health.find(static_cast<int>(kTargetSid));
        ASSERT_NE(h, r.final_health.end());
        EXPECT_EQ(h->second, StreamHealth::kFailed);
        EXPECT_GT(SumField(r.stats, &parallel::ShardStats::frames_failed), 0);
        break;
      }
    }
  }
}

TEST_F(FaultMatrixTest, QueueOverflowMatrix) {
  const ScenarioResult baseline = RunScenario(CorruptionPolicy::kSkip);
  ASSERT_TRUE(baseline.drain_status.ok());
  for (const CorruptionPolicy policy :
       {CorruptionPolicy::kSkip, CorruptionPolicy::kQuarantine,
        CorruptionPolicy::kFail}) {
    faultfx::Injector::Instance().Reset();
    faultfx::Plan plan;
    plan.seed = 43;
    plan.key_filter = kTargetSid;
    plan.skip_first = 5;
    plan.max_fires = 6;
    faultfx::ScopedFault fault(faultfx::Site::kQueueOverflow, plan);
    const ScenarioResult r = RunScenario(policy);
    // An overflow drop happens before the frame reaches the stream's
    // detector, so no policy can fail or quarantine the stream for it.
    EXPECT_TRUE(r.drain_status.ok()) << r.drain_status.ToString();
    EXPECT_EQ(r.stats.frames_dropped_backpressure, 6);
    ExpectOthersIdentical(baseline.matches, r.matches, kTargetIndex);
    ExpectFramePartition(r.stats);
  }
}

TEST_F(FaultMatrixTest, ClockSkewMatrix) {
  const ScenarioResult baseline = RunScenario(CorruptionPolicy::kSkip);
  ASSERT_TRUE(baseline.drain_status.ok());
  for (const CorruptionPolicy policy :
       {CorruptionPolicy::kSkip, CorruptionPolicy::kFail}) {
    faultfx::Injector::Instance().Reset();
    faultfx::Plan plan;
    plan.seed = 44;
    plan.key_filter = kTargetSid;
    plan.skip_first = 20;
    plan.max_fires = 2;
    plan.magnitude = -5.0;  // five seconds backwards
    faultfx::ScopedFault fault(faultfx::Site::kClockSkew, plan);
    const ScenarioResult r = RunScenario(policy);
    ExpectOthersIdentical(baseline.matches, r.matches, kTargetIndex);
    ExpectFramePartition(r.stats);
    // The detector demotes out-of-order frames instead of corrupting its
    // window clock; the shard books them as faults.
    int64_t out_of_order = 0;
    for (const auto& ds : r.stats.shard_detector_stats) {
      out_of_order += ds.out_of_order_frames;
    }
    if (policy == CorruptionPolicy::kSkip) {
      EXPECT_TRUE(r.drain_status.ok()) << r.drain_status.ToString();
      EXPECT_EQ(out_of_order, 2);
      EXPECT_EQ(SumField(r.stats, &parallel::ShardStats::frames_degraded), 2);
    } else {
      EXPECT_EQ(r.drain_status.code(), StatusCode::kCorruption);
    }
  }
}

/// The stall cell drives the full watchdog arc by hand: a 400 ms injected
/// stall on shard 1 → watchdog failover → deterministic failover drop and
/// an orphaned CloseStream → drain-and-readmit → recovery. Streams on the
/// healthy shard and the untouched stream on the stalled shard must stay
/// byte-identical to the no-fault run.
TEST_F(FaultMatrixTest, ShardStallTriggersWatchdogFailoverAndRecovery) {
  const ScenarioResult baseline = RunScenario(CorruptionPolicy::kSkip);
  ASSERT_TRUE(baseline.drain_status.ok());

  faultfx::Injector::Instance().Reset();
  faultfx::Plan plan;
  plan.seed = 45;
  plan.key_filter = 2;  // shard id 1 (stall keys are shard_id + 1)
  plan.skip_first = 4;
  plan.max_fires = 1;
  plan.magnitude = 400.0;  // one 400 ms stall, bounded so teardown can't hang
  faultfx::ScopedFault fault(faultfx::Site::kShardStall, plan);

  auto exec = StreamExecutor::Create(
                  SmallConfig(),
                  TestParallelConfig(CorruptionPolicy::kSkip, /*watchdog_ms=*/20))
                  .value();
  ASSERT_TRUE(exec->AddQuery(1, QueryFrames(), 16.0).ok());
  std::vector<int> sids;
  for (int s = 0; s < kStreams; ++s) {
    sids.push_back(exec->OpenStream("stream-" + std::to_string(s)).value());
  }
  // Ten rounds are enough to trip the stall (shard 1's fifth task) while
  // staying far below queue capacity, so this thread never blocks.
  for (int i = 0; i < 10; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(exec->ProcessKeyFrame(sids[static_cast<size_t>(s)],
                                        TinyFrame(i, ScenarioFill(i, s)))
                      .ok());
    }
  }
  const auto wait_shard1 = [&](bool want_failed) {
    for (int i = 0; i < 1000; ++i) {
      const ExecutorStats st = exec->Stats();
      if (st.shards.size() > 1 && st.shards[1].failed_over == want_failed) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  ASSERT_TRUE(wait_shard1(true)) << "watchdog never failed the stalled shard";

  // While failed over: a submission is dropped (counted, not blocked) and a
  // close is abandoned as an orphan instead of wedging the control plane.
  ASSERT_TRUE(exec->ProcessKeyFrame(sids[1], TinyFrame(10, 0.0f)).ok());
  EXPECT_EQ(exec->CloseStream(sids[1]).code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec->num_open_streams(), 4);  // the orphan is not reaped yet

  ASSERT_TRUE(wait_shard1(false)) << "drained shard was never readmitted";

  // Recovery: the remaining streams finish their full schedule untouched.
  for (int i = 10; i < kNoiseFrames + kCopyFrames; ++i) {
    for (const int s : {0, 2, 3}) {
      ASSERT_TRUE(exec->ProcessKeyFrame(sids[static_cast<size_t>(s)],
                                        TinyFrame(i, ScenarioFill(i, s)))
                      .ok());
    }
  }
  ASSERT_TRUE(exec->Drain().ok());
  // A control-plane call after the shard drained reaps the orphaned close:
  // the stream is gone now and its matches were folded in, not lost.
  EXPECT_EQ(exec->num_open_streams(), 3);
  for (const int s : {0, 2, 3}) {
    EXPECT_TRUE(exec->CloseStream(sids[static_cast<size_t>(s)]).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());

  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_dropped_failover, 1);  // exactly the probe frame
  ExpectFramePartition(stats);

  MatchLog got;
  for (const core::StreamMatch& m : exec->matches()) {
    got[m.stream_name].push_back(MatchKey{m.match.query_id, m.match.start_time,
                                          m.match.end_time,
                                          m.match.similarity});
  }
  ExpectOthersIdentical(baseline.matches, got, /*injected=*/1);
}

}  // namespace
}  // namespace vcd
