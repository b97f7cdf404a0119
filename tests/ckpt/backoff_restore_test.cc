/// \file backoff_restore_test.cc
/// Satellite of the checkpoint/restore PR: the per-stream health machine's
/// readmission backoff must survive a checkpoint/restore cycle exactly —
/// the countdown resumes where the snapshot cut it, it is not reset to the
/// full backoff, and readmission does not fire twice (DESIGN.md §12/§16).
///
/// Quarantine is driven deterministically by submitting frames with
/// `degraded = true` (a decode-layer fault marker), so this test needs no
/// faultfx build.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/detector.h"
#include "parallel/executor.h"
#include "video/partial_decoder.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::ParallelConfig;
using parallel::StreamExecutor;
using parallel::StreamHealth;

DetectorConfig SmallConfig() {
  DetectorConfig c;
  c.K = 32;
  c.window_seconds = 4.0;
  c.delta = 0.6;
  return c;
}

ParallelConfig BackoffConfig() {
  ParallelConfig pc;
  pc.num_threads = 1;  // single shard: health transitions in submission order
  pc.on_corruption = core::CorruptionPolicy::kQuarantine;
  pc.degraded_after_faults = 1;
  pc.quarantine_after_faults = 2;
  pc.recover_after_frames = 2;
  pc.quarantine_backoff_frames = 8;
  pc.quarantine_backoff_max_frames = 32;
  return pc;
}

video::DcFrame Frame(int64_t slot, bool degraded) {
  video::DcFrame f;
  f.blocks_x = 4;
  f.blocks_y = 4;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.degraded = degraded;
  f.dc.resize(16);
  for (size_t i = 0; i < 16; ++i) {
    f.dc[i] = 60.0f * std::sin(0.3f * static_cast<float>(slot) +
                               0.9f * static_cast<float>(i));
  }
  return f;
}

TEST(BackoffRestoreTest, ReadmissionCountdownSurvivesRestore) {
  auto exec = StreamExecutor::Create(SmallConfig(), BackoffConfig()).value();
  auto sid = exec->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  int64_t slot = 0;
  // Two consecutive faults: quarantined with quarantine_remaining = 8 and
  // the next backoff doubled to 16.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(*sid, Frame(slot++, true)).ok());
  }
  // Serve 3 of the 8 backoff frames (discarded while quarantined).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(*sid, Frame(slot++, false)).ok());
  }
  auto ckpt = exec->Checkpoint();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  ASSERT_EQ(ckpt->streams.size(), 1u);
  const core::StreamCkpt& s = ckpt->streams[0];
  EXPECT_EQ(s.health, static_cast<int>(StreamHealth::kQuarantined));
  EXPECT_EQ(s.quarantine_remaining, 5) << "3 of 8 backoff frames served";
  EXPECT_EQ(s.backoff_frames, 16) << "next quarantine doubles";

  // Crash here. Restore onto a fresh executor.
  auto restored = StreamExecutor::Create(SmallConfig(), BackoffConfig()).value();
  ASSERT_TRUE(restored->RestoreCkpt(*ckpt).ok());
  {
    auto h = restored->HealthOf(*sid);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, StreamHealth::kQuarantined);
  }
  // 4 more clean frames: countdown 5 → 1, still quarantined. If restore had
  // reset the countdown to the full backoff (8 or 16), the stream would
  // stay quarantined far longer and the assertions below would catch it.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(restored->ProcessKeyFrame(*sid, Frame(slot++, false)).ok());
  }
  {
    auto h = restored->HealthOf(*sid);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, StreamHealth::kQuarantined) << "countdown must not reset";
  }
  // The 5th frame serves the last backoff slot: readmitted on probation.
  ASSERT_TRUE(restored->ProcessKeyFrame(*sid, Frame(slot++, false)).ok());
  {
    auto h = restored->HealthOf(*sid);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, StreamHealth::kDegraded) << "readmission fires exactly once";
  }
  // Exactly one quarantine exit: the gauge is back to zero, and the event
  // counter still shows the single pre-crash entry transition.
  auto stats = restored->Stats();
  int gauge = 0;
  for (const auto& sh : stats.shards) gauge += sh.streams_quarantined;
  EXPECT_EQ(gauge, 0) << "double-fire would leave the gauge negative or stale";
  // Two clean probation frames: healthy again, backoff reset for the future.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(restored->ProcessKeyFrame(*sid, Frame(slot++, false)).ok());
  }
  {
    auto h = restored->HealthOf(*sid);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, StreamHealth::kHealthy);
  }
  auto ckpt2 = restored->Checkpoint();
  ASSERT_TRUE(ckpt2.ok());
  ASSERT_EQ(ckpt2->streams.size(), 1u);
  EXPECT_EQ(ckpt2->streams[0].backoff_frames, 8)
      << "recovery resets the doubled backoff";
}

TEST(BackoffRestoreTest, RestoredRunMatchesUninterruptedRun) {
  // The health trajectory of checkpoint → restore → continue must be
  // indistinguishable from a run that was never interrupted: same frames,
  // same transitions, same final checkpoint image of the health fields.
  const int kCut = 5;    // checkpoint after this many frames
  const int kTotal = 14; // 2 faults + 12 clean
  auto feed = [](StreamExecutor* e, int sid, int from, int to) {
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(e->ProcessKeyFrame(sid, Frame(i, i < 2)).ok());
    }
  };

  auto uninterrupted =
      StreamExecutor::Create(SmallConfig(), BackoffConfig()).value();
  auto sid_a = uninterrupted->OpenStream("s");
  ASSERT_TRUE(sid_a.ok());
  feed(uninterrupted.get(), *sid_a, 0, kTotal);
  auto final_a = uninterrupted->Checkpoint();
  ASSERT_TRUE(final_a.ok());

  auto first = StreamExecutor::Create(SmallConfig(), BackoffConfig()).value();
  auto sid_b = first->OpenStream("s");
  ASSERT_TRUE(sid_b.ok());
  ASSERT_EQ(*sid_b, *sid_a);
  feed(first.get(), *sid_b, 0, kCut);
  auto mid = first->Checkpoint();
  ASSERT_TRUE(mid.ok());
  auto second = StreamExecutor::Create(SmallConfig(), BackoffConfig()).value();
  ASSERT_TRUE(second->RestoreCkpt(*mid).ok());
  feed(second.get(), *sid_b, kCut, kTotal);
  auto final_b = second->Checkpoint();
  ASSERT_TRUE(final_b.ok());

  ASSERT_EQ(final_a->streams.size(), 1u);
  ASSERT_EQ(final_b->streams.size(), 1u);
  const core::StreamCkpt& a = final_a->streams[0];
  const core::StreamCkpt& b = final_b->streams[0];
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.consecutive_faults, b.consecutive_faults);
  EXPECT_EQ(a.consecutive_clean, b.consecutive_clean);
  EXPECT_EQ(a.quarantine_remaining, b.quarantine_remaining);
  EXPECT_EQ(a.backoff_frames, b.backoff_frames);
  // The clock-skew guard lives in the detector.
  EXPECT_EQ(a.detector.max_timestamp, b.detector.max_timestamp);
  EXPECT_EQ(a.detector.saw_frame, b.detector.saw_frame);
}

TEST(BackoffRestoreTest, SerialShapeSnapshotKeepsConfiguredBackoff) {
  // A snapshot in the serial shape carries every health field at its
  // default, backoff_frames = 0 included. Installed as is, a backoff that
  // only ever doubles stays 0 and every quarantine lasts one frame; the
  // restore clamps it into the configured range instead, so both snapshots
  // below quarantine alike under 100 corrupt frames.
  ParallelConfig pc;
  pc.num_threads = 1;
  pc.on_corruption = core::CorruptionPolicy::kQuarantine;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  auto sid = exec->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  auto own = exec->Checkpoint();
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  ASSERT_EQ(own->streams.size(), 1u);
  ckpt::SnapshotState serial_shape = *own;
  serial_shape.streams[0].backoff_frames = 0;

  for (const ckpt::SnapshotState* snapshot : {&*own, &serial_shape}) {
    auto restored = StreamExecutor::Create(SmallConfig(), pc).value();
    ASSERT_TRUE(restored->RestoreCkpt(*snapshot).ok());
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(restored->ProcessKeyFrame(*sid, Frame(i, true)).ok());
    }
    const parallel::ShardStats sh = restored->Stats().shards.at(0);
    // 8 faults, 32 discarded, 8 faults, the remaining 52 discarded.
    EXPECT_EQ(sh.quarantine_events, 2);
    EXPECT_EQ(sh.frames_quarantined, 84);
    EXPECT_EQ(sh.frames_processed, 16);
  }
}

}  // namespace
}  // namespace vcd
