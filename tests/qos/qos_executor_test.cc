/// \file qos_executor_test.cc
/// The overload governor wired into the parallel executor (DESIGN.md §17):
///   - enabled-but-never-triggered is byte-identical to governor-off — the
///     key "do no harm" invariant;
///   - a shard in Shedding sheds by priority class (high never, normal 1/2,
///     low 3/4) with exact split accounting in the registry;
///   - Degraded pushes the probe_every_n knob into the detectors and
///     recovery withdraws it;
///   - governor state survives checkpoint/restore mid-Degraded;
///   - a kBlock push against a stalled consumer times out after
///     push_deadline_ms and is counted as cause="deadline" (faultfx);
///   - a seeded ~2x overload soak degrades, sheds low/normal but never
///     high, keeps lag bounded, and survives a mid-Degraded
///     checkpoint/restore (faultfx).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/state_codec.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "parallel/executor.h"
#include "qos/qos.h"
#include "util/faultfx.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::ParallelConfig;
using ckpt::SnapshotState;
using core::StreamMatch;
using parallel::ExecutorStats;
using parallel::StreamExecutor;
using qos::Priority;
using qos::QosState;

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

/// Every field of every match, bit-exact — the byte-identity unit.
bool SameMatches(const std::vector<StreamMatch>& a,
                 const std::vector<StreamMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].stream_id != b[i].stream_id ||
        a[i].stream_name != b[i].stream_name ||
        a[i].match.query_id != b[i].match.query_id ||
        a[i].match.start_frame != b[i].match.start_frame ||
        a[i].match.end_frame != b[i].match.end_frame ||
        a[i].match.start_time != b[i].match.start_time ||
        a[i].match.end_time != b[i].match.end_time ||
        a[i].match.similarity != b[i].match.similarity) {
      return false;
    }
  }
  return true;
}

/// Reads one series value (counter or gauge) by exact key, 0 when absent.
int64_t Series(const obs::MetricsRegistry& reg, const std::string& name,
               const std::string& labels = "") {
  for (const obs::MetricSnapshot& s : reg.Collect()) {
    std::string key = s.name;
    for (const obs::MetricLabel& l : s.labels) {
      key += "{" + l.key + "=" + l.value + "}";
    }
    if (key == name + labels) return s.value;
  }
  return 0;
}

int64_t Shed(const obs::MetricsRegistry& reg, const std::string& priority) {
  return Series(reg, "vcd_qos_frames_shed_total", "{priority=" + priority + "}");
}

ParallelConfig BaseConfig(int threads) {
  ParallelConfig pc;
  pc.num_threads = threads;
  pc.queue_capacity = 64;
  pc.backpressure = core::BackpressurePolicy::kBlock;
  pc.on_corruption = core::CorruptionPolicy::kSkip;
  return pc;
}

/// The canonical 2-stream copy scenario: noise, then an embedded copy of
/// query 1 on both streams. Returns the merged match log.
std::vector<StreamMatch> RunCopyScenario(StreamExecutor& exec, bool tick_qos) {
  EXPECT_TRUE(exec.AddQuery(1, QueryFrames(), 16.0).ok());
  std::vector<int> sids;
  for (int s = 0; s < 2; ++s) {
    sids.push_back(exec.OpenStream("stream-" + std::to_string(s)).value());
  }
  for (int i = 0; i < 65; ++i) {
    for (int s = 0; s < 2; ++s) {
      const float fill = i < 25 ? -80.0f + static_cast<float>((i + s) % 5)
                                : 100.0f + static_cast<float>(i - 25);
      EXPECT_TRUE(
          exec.ProcessKeyFrame(sids[static_cast<size_t>(s)], TinyFrame(i, fill))
              .ok());
    }
    if (tick_qos) exec.TickQos();
  }
  for (int sid : sids) EXPECT_TRUE(exec.CloseStream(sid).ok());
  EXPECT_TRUE(exec.Drain().ok());
  return exec.matches();
}

TEST(QosExecutorTest, IdleGovernorIsByteIdenticalToGovernorOff) {
  // Governor off.
  auto off = StreamExecutor::Create(SmallConfig(), BaseConfig(2)).value();
  const std::vector<StreamMatch> off_matches = RunCopyScenario(*off, false);

  // Governor on with an escalation dwell no real run can satisfy: it senses
  // every round but can never fire a transition.
  ParallelConfig pc = BaseConfig(2);
  pc.qos.enabled = true;
  pc.qos.tick_ms = 0;  // ticked by hand each round
  pc.qos.escalate_dwell_ticks = 1000000;
  auto on = StreamExecutor::Create(SmallConfig(), pc).value();
  const std::vector<StreamMatch> on_matches = RunCopyScenario(*on, true);

  // The scenario must detect something, or identity proves nothing.
  EXPECT_GT(off_matches.size(), 0u);
  EXPECT_TRUE(SameMatches(off_matches, on_matches));

  const ExecutorStats st = on->Stats();
  EXPECT_EQ(st.qos_global_state, static_cast<int>(QosState::kNormal));
  EXPECT_EQ(st.frames_shed, 0);
  EXPECT_EQ(on->QosGlobalState(), QosState::kNormal);
  // The state gauges exist (and read Normal) as soon as the executor does.
  EXPECT_EQ(Series(on->metrics_registry(), "vcd_qos_state", "{shard=0}"), 0);
  EXPECT_EQ(Series(on->metrics_registry(), "vcd_qos_state", "{shard=1}"), 0);
  // The detectors never saw a degrade knob.
  int64_t skipped = 0;
  for (const auto& ds : st.shard_detector_stats) {
    skipped += ds.qos_skipped_windows;
  }
  EXPECT_EQ(skipped, 0);
}

/// Builds a single-shard executor with three open streams (high/normal/low),
/// feeds \p warm_slots frames each, and returns its checkpoint.
struct SeededCkpt {
  SnapshotState ckpt;
  int sid_high = 0, sid_normal = 0, sid_low = 0;
};

SeededCkpt MakeSeededCkpt(const ParallelConfig& pc, int warm_slots) {
  SeededCkpt out;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  out.sid_high = exec->OpenStream("hi", Priority::kHigh).value();
  out.sid_normal = exec->OpenStream("nm", Priority::kNormal).value();
  out.sid_low = exec->OpenStream("lo", Priority::kLow).value();
  for (int i = 0; i < warm_slots; ++i) {
    for (int sid : {out.sid_high, out.sid_normal, out.sid_low}) {
      EXPECT_TRUE(exec->ProcessKeyFrame(sid, TinyFrame(i, 3.0f)).ok());
    }
  }
  EXPECT_TRUE(exec->Drain().ok());
  out.ckpt = exec->Checkpoint().value();
  return out;
}

TEST(QosExecutorTest, RestoredSheddingShardShedsByPriorityClass) {
  ParallelConfig pc = BaseConfig(1);
  pc.qos.enabled = true;
  pc.qos.tick_ms = 0;
  SeededCkpt seeded = MakeSeededCkpt(pc, 4);

  // Priorities round-trip through the stream records.
  ASSERT_EQ(seeded.ckpt.streams.size(), 3u);
  EXPECT_EQ(seeded.ckpt.streams[0].priority, static_cast<int>(Priority::kHigh));
  EXPECT_EQ(seeded.ckpt.streams[1].priority,
            static_cast<int>(Priority::kNormal));
  EXPECT_EQ(seeded.ckpt.streams[2].priority, static_cast<int>(Priority::kLow));

  // Put the (only) shard's governor machine in Shedding and restore — the
  // deterministic way to a shedding shard, and exactly what a crash during
  // an overload leaves behind.
  seeded.ckpt.qos.assign(1, qos::GovernorShardCkpt{});
  seeded.ckpt.qos[0].state = static_cast<int32_t>(QosState::kShedding);
  seeded.ckpt.qos[0].dwell_ticks = 5;

  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  ASSERT_TRUE(exec->RestoreCkpt(seeded.ckpt).ok());
  EXPECT_EQ(exec->QosStateOf(0), QosState::kShedding);
  EXPECT_EQ(exec->QosGlobalState(), QosState::kShedding);

  // 8 frames per stream against fresh (seq 0) shed gates: high admits all
  // 8, normal sheds seqs {1,3,5,7}, low sheds all but seqs {0,4}.
  for (int i = 4; i < 12; ++i) {
    for (int sid : {seeded.sid_high, seeded.sid_normal, seeded.sid_low}) {
      ASSERT_TRUE(exec->ProcessKeyFrame(sid, TinyFrame(i, 3.0f)).ok());
    }
  }
  ASSERT_TRUE(exec->Drain().ok());

  const obs::MetricsRegistry& reg = exec->metrics_registry();
  EXPECT_EQ(Shed(reg, "high"), 0);
  EXPECT_EQ(Shed(reg, "normal"), 4);
  EXPECT_EQ(Shed(reg, "low"), 6);
  EXPECT_EQ(Series(reg, "vcd_frames_dropped_total", "{cause=qos_shed}"), 10);

  const ExecutorStats st = exec->Stats();
  EXPECT_EQ(st.frames_shed, 10);
  EXPECT_EQ(st.qos_global_state, static_cast<int>(QosState::kShedding));
  // Every admitted frame was processed: 24 submitted, 10 shed, 14 ran.
  EXPECT_EQ(st.frames_submitted, 24);
  int64_t processed = 0;
  for (const auto& sh : st.shards) processed += sh.frames_processed;
  EXPECT_EQ(processed, 14);
  // The high-priority stream saw every one of its frames (4 warm + 8 new).
  EXPECT_EQ(exec->StreamStats(seeded.sid_high).value().key_frames, 12);
}

TEST(QosExecutorTest, DegradedKnobsSkipWindowsAndRecoveryWithdrawsThem) {
  ParallelConfig pc = BaseConfig(1);
  pc.qos.enabled = true;
  pc.qos.tick_ms = 0;
  pc.qos.escalate_dwell_ticks = 1;
  pc.qos.recover_dwell_ticks = 1;
  pc.qos.degrade.probe_every_n = 2;
  SeededCkpt seeded = MakeSeededCkpt(pc, 4);

  seeded.ckpt.qos.assign(1, qos::GovernorShardCkpt{});
  seeded.ckpt.qos[0].state = static_cast<int32_t>(QosState::kDegraded);

  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  ASSERT_TRUE(exec->RestoreCkpt(seeded.ckpt).ok());
  EXPECT_EQ(exec->QosStateOf(0), QosState::kDegraded);

  // Degraded never sheds — every frame is admitted; the quality knob shows
  // up as skipped combination windows instead (a 4 s basic window completes
  // every ~10 frames at this 0.4 s frame cadence, so feed enough for
  // several).
  for (int i = 4; i < 60; ++i) {
    ASSERT_TRUE(
        exec->ProcessKeyFrame(seeded.sid_high, TinyFrame(i, 3.0f)).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());
  EXPECT_EQ(exec->Stats().frames_shed, 0);
  const int64_t skipped_degraded =
      exec->StreamStats(seeded.sid_high).value().qos_skipped_windows;
  EXPECT_GT(skipped_degraded, 0);

  // A mid-Degraded checkpoint carries the governor machine.
  const SnapshotState mid = exec->Checkpoint().value();
  ASSERT_EQ(mid.qos.size(), 1u);
  EXPECT_EQ(mid.qos[0].state, static_cast<int32_t>(QosState::kDegraded));

  // Idle queue = calm; with 1-tick dwells the first tick de-escalates to
  // Recovering (crossing the Degraded line withdraws the knobs) and the
  // second to Normal.
  exec->TickQos();
  EXPECT_EQ(exec->QosStateOf(0), QosState::kRecovering);
  exec->TickQos();
  EXPECT_EQ(exec->QosStateOf(0), QosState::kNormal);

  for (int i = 60; i < 120; ++i) {
    ASSERT_TRUE(
        exec->ProcessKeyFrame(seeded.sid_high, TinyFrame(i, 3.0f)).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());
  EXPECT_EQ(exec->StreamStats(seeded.sid_high).value().qos_skipped_windows,
            skipped_degraded)
      << "knobs still active after recovery";
}

TEST(QosExecutorTest, PushDeadlineDropsWhenTheConsumerStalls) {
  if (!faultfx::kEnabled) {
    GTEST_SKIP() << "faultfx sites compiled out (build with -DVCD_FAULTFX=ON)";
  }
  faultfx::Injector::Instance().Reset();

  ParallelConfig pc = BaseConfig(1);
  pc.queue_capacity = 2;
  pc.push_deadline_ms = 30;

  // One 400 ms stall on shard 0's worker: the queue backs up, and a kBlock
  // submission can only wait out its deadline.
  faultfx::Plan plan;
  plan.seed = 7;
  plan.key_filter = 1;  // stall keys are shard_id + 1
  plan.max_fires = 1;
  plan.magnitude = 400.0;
  faultfx::ScopedFault fault(faultfx::Site::kShardStall, plan);

  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  const int sid = exec->OpenStream("s").value();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(sid, TinyFrame(i, 2.0f)).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());
  faultfx::Injector::Instance().Reset();

  const ExecutorStats st = exec->Stats();
  EXPECT_GE(st.frames_dropped_deadline, 1);
  EXPECT_EQ(st.frames_dropped_deadline,
            Series(exec->metrics_registry(), "vcd_frames_dropped_total",
                   "{cause=deadline}"));
  // Deadline drops are deadline drops — not backpressure, not sheds.
  EXPECT_EQ(st.frames_dropped_backpressure, 0);
  EXPECT_EQ(st.frames_shed, 0);
}

/// The acceptance soak: a seeded ~2x overload (every task pays an injected
/// 1 ms stall while two producers-worth of frames arrive) must drive the
/// governor into Degraded/Shedding, shed normal/low frames but never a
/// high-priority one, keep stream lag bounded, and survive a checkpoint
/// taken mid-Degraded with the governor state intact.
TEST(QosExecutorTest, OverloadSoakShedsLowNeverHighAndSurvivesRestore) {
  if (!faultfx::kEnabled) {
    GTEST_SKIP() << "faultfx sites compiled out (build with -DVCD_FAULTFX=ON)";
  }
  faultfx::Injector::Instance().Reset();

  ParallelConfig pc = BaseConfig(2);
  pc.queue_capacity = 16;
  pc.qos.enabled = true;
  pc.qos.tick_ms = 0;  // ticked from the feed loop: deterministic sensing
  pc.qos.degrade_watermark = 0.25;
  pc.qos.shed_watermark = 0.5;
  pc.qos.recover_watermark = 0.1;
  pc.qos.escalate_dwell_ticks = 1;
  pc.qos.recover_dwell_ticks = 2;
  pc.qos.degrade.probe_every_n = 2;

  faultfx::Plan plan;
  plan.seed = 2026;
  plan.magnitude = 1.0;  // every task pays 1 ms: ~2x the offered frame rate
  faultfx::ScopedFault fault(faultfx::Site::kShardStall, plan);

  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  // Shard 0 hosts {high, low}, shard 1 hosts {normal, low} — both shards
  // carry a sheddable stream, and shard 0 proves high never starves.
  const int hi = exec->OpenStream("hi", Priority::kHigh).value();       // shard 0
  const int nm = exec->OpenStream("nm", Priority::kNormal).value();     // shard 1
  const int lo0 = exec->OpenStream("lo0", Priority::kLow).value();      // shard 0
  const int lo1 = exec->OpenStream("lo1", Priority::kLow).value();      // shard 1

  QosState worst = QosState::kNormal;
  int64_t max_lag_us = 0;
  bool ckpt_taken = false;
  SnapshotState mid;
  int64_t hi_submitted = 0;
  for (int round = 0; round < 120; ++round) {
    for (int sid : {hi, nm, lo0, lo1}) {
      ASSERT_TRUE(exec->ProcessKeyFrame(sid, TinyFrame(round, 5.0f)).ok());
      if (sid == hi) ++hi_submitted;
    }
    exec->TickQos();
    const QosState g = exec->QosGlobalState();
    if (static_cast<int>(g) > static_cast<int>(worst)) worst = g;
    for (int sh = 0; sh < 2; ++sh) {
      const int64_t lag =
          Series(exec->metrics_registry(), "vcd_shard_stream_lag_us",
                 "{shard=" + std::to_string(sh) + "}");
      if (lag > max_lag_us) max_lag_us = lag;
    }
    // Once the overload is sensed, cut a checkpoint mid-Degraded: ticking
    // stops so the machines hold their state across the quiesce barrier.
    if (!ckpt_taken && static_cast<int>(g) >= static_cast<int>(QosState::kDegraded) &&
        round >= 40) {
      mid = exec->Checkpoint().value();
      ckpt_taken = true;
    }
  }
  ASSERT_TRUE(exec->Drain().ok());

  // The overload was sensed and degradation engaged.
  EXPECT_GE(static_cast<int>(worst), static_cast<int>(QosState::kDegraded));
  ASSERT_TRUE(ckpt_taken) << "overload never crossed the Degraded line";
  bool mid_degraded = false;
  for (const auto& m : mid.qos) {
    if (m.state >= static_cast<int32_t>(QosState::kDegraded)) mid_degraded = true;
  }
  EXPECT_TRUE(mid_degraded);

  // Priority contract: zero high-priority sheds, ever.
  const obs::MetricsRegistry& reg = exec->metrics_registry();
  EXPECT_EQ(Shed(reg, "high"), 0);
  // The high stream itself saw every frame it submitted.
  EXPECT_EQ(exec->StreamStats(hi).value().key_frames, hi_submitted);
  // Lag stayed bounded (the blocking producer + governor cap it far below
  // this; an unbounded-backlog bug would blow straight through).
  EXPECT_LT(max_lag_us, int64_t{30} * 1000 * 1000);

  // Accounting: submitted = processed + shed, exactly.
  const ExecutorStats st = exec->Stats();
  int64_t processed = 0;
  for (const auto& sh : st.shards) processed += sh.frames_processed;
  EXPECT_EQ(st.frames_submitted, processed + st.frames_shed);

  // Restore the mid-Degraded cut into a fresh executor: the governor state
  // comes back, and the priority contract still holds.
  faultfx::Injector::Instance().Reset();
  auto restored = StreamExecutor::Create(SmallConfig(), pc).value();
  ASSERT_TRUE(restored->RestoreCkpt(mid).ok());
  EXPECT_GE(static_cast<int>(restored->QosGlobalState()),
            static_cast<int>(QosState::kDegraded));
  for (int i = 200; i < 210; ++i) {
    for (int sid : {hi, nm, lo0, lo1}) {
      ASSERT_TRUE(restored->ProcessKeyFrame(sid, TinyFrame(i, 5.0f)).ok());
    }
  }
  ASSERT_TRUE(restored->Drain().ok());
  EXPECT_EQ(Shed(restored->metrics_registry(), "high"), 0);
}

}  // namespace
}  // namespace vcd
