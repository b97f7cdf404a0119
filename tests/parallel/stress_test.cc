/// \file stress_test.cc
/// Concurrency stress for the parallel executor: interleaved
/// OpenStream/CloseStream/AddQuery/RemoveQuery from multiple threads while
/// frames flow. Run under ThreadSanitizer (tools/check.sh tsan) this is the
/// race/use-after-close proof; in plain builds it checks that no matches
/// are lost and that the frame accounting reconciles exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/match.h"
#include "parallel/executor.h"
#include "parallel/mpsc_queue.h"
#include "util/rng.h"

namespace vcd {
namespace {

using core::BackpressurePolicy;
using core::CorruptionPolicy;
using core::DetectorConfig;
using core::ParallelConfig;
using parallel::BoundedMpscQueue;
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

/// A frame the decoder would have emitted after a corruption resync.
video::DcFrame DegradedFrame(int64_t slot) {
  video::DcFrame f = TinyFrame(slot, 0.0f);
  f.degraded = true;
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
  for (int i = 0; i < 25; ++i) {
    ids.push_back(static_cast<features::CellId>(rng.Uniform(3000)));
  }
  auto fam = sketch::MinHashFamily::Create(c.K, c.hash_seed).value();
  sketch::Sketcher sk(&fam);
  return sk.FromSequence(ids);
}

/// Sum of a counter over all shards.
int64_t SumProcessed(const ExecutorStats& s) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.frames_processed;
  return n;
}
int64_t SumRejected(const ExecutorStats& s) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.frames_rejected;
  return n;
}
int64_t SumDegraded(const ExecutorStats& s) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.frames_degraded;
  return n;
}
int64_t SumQuarantined(const ExecutorStats& s) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.frames_quarantined;
  return n;
}
int64_t SumFailed(const ExecutorStats& s) {
  int64_t n = 0;
  for (const auto& sh : s.shards) n += sh.frames_failed;
  return n;
}

/// Every submitted frame lands in exactly one bucket (executor.h,
/// ProcessKeyFrame doc): processed, rejected, quarantined, failed, or one
/// of the two drop counters.
void ExpectFramePartition(const ExecutorStats& s) {
  EXPECT_EQ(SumProcessed(s) + SumRejected(s) + SumQuarantined(s) + SumFailed(s) +
                s.frames_dropped_backpressure + s.frames_dropped_failover,
            s.frames_submitted);
}

TEST(BoundedMpscQueueTest, CapacityCloseAndGauges) {
  BoundedMpscQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  q.Close();
  EXPECT_FALSE(q.TryPush(4));  // closed
  EXPECT_TRUE(q.Pop(&v));      // pending item still poppable
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.Pop(&v));  // closed + drained
  EXPECT_EQ(q.high_water(), 2u);
}

/// Feeders own disjoint stream sets and churn open/feed/close while the
/// main thread churns the query portfolio and polls stats. No match may be
/// lost, and the frame accounting must reconcile exactly.
TEST(StressTest, NoLostMatchesUnderConcurrentChurn) {
  const DetectorConfig config = SmallConfig();
  ParallelConfig pc;
  pc.num_threads = 4;
  pc.queue_capacity = 32;
  pc.backpressure = BackpressurePolicy::kBlock;
  auto exec = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(exec->AddQuery(1, QueryFrames(), 16.0).ok());

  const int kFeeders = 4;
  const int kStreamsPerFeeder = 3;
  std::atomic<int> streams_fed{0};
  std::atomic<bool> feeders_done{false};
  std::vector<std::thread> feeders;
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      for (int k = 0; k < kStreamsPerFeeder; ++k) {
        auto id = exec->OpenStream("feeder-" + std::to_string(f) + "-" +
                                   std::to_string(k));
        ASSERT_TRUE(id.ok());
        int64_t slot = 0;
        for (int i = 0; i < 25; ++i, ++slot) {
          ASSERT_TRUE(
              exec->ProcessKeyFrame(*id, TinyFrame(slot, -80.0f + (i % 5))).ok());
        }
        for (int i = 0; i < 40; ++i, ++slot) {
          ASSERT_TRUE(
              exec->ProcessKeyFrame(*id, TinyFrame(slot, 100.0f + i)).ok());
        }
        ASSERT_TRUE(exec->CloseStream(*id).ok());
        streams_fed.fetch_add(1);
      }
    });
  }

  // Portfolio churn + stats polling concurrent with the feeders.
  uint64_t churn_seed = 1000;
  while (!feeders_done.load()) {
    const int qid = 100 + static_cast<int>(churn_seed % 7);
    if (exec->AddQuerySketch(qid, RandomSketch(config, churn_seed), 25, 10.0).ok()) {
      // Removing immediately exercises add/remove command pairs in flight.
      EXPECT_TRUE(exec->RemoveQuery(qid).ok());
    }
    (void)exec->Stats();
    (void)exec->num_open_streams();
    ++churn_seed;
    if (streams_fed.load() >= kFeeders * kStreamsPerFeeder) feeders_done = true;
  }
  for (auto& t : feeders) t.join();

  ASSERT_TRUE(exec->Drain().ok());
  // Every stream carried one embedded copy of query 1: none may be lost.
  std::set<std::string> streams_with_match;
  for (const core::StreamMatch& m : exec->matches()) {
    if (m.match.query_id == 1) streams_with_match.insert(m.stream_name);
  }
  EXPECT_EQ(static_cast<int>(streams_with_match.size()),
            kFeeders * kStreamsPerFeeder);

  // Accounting: under kBlock nothing is dropped, feeders never race their
  // own close, so processed must equal submitted exactly.
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_dropped_backpressure, 0);
  EXPECT_EQ(stats.frames_dropped_failover, 0);
  EXPECT_EQ(SumRejected(stats), 0);
  EXPECT_EQ(SumProcessed(stats), stats.frames_submitted);
  EXPECT_EQ(stats.frames_submitted,
            static_cast<int64_t>(kFeeders * kStreamsPerFeeder) * 65);
  EXPECT_EQ(exec->num_open_streams(), 0);
}

/// kDropNewest: a tiny queue fed by a fast producer must drop (and count)
/// frames; submitted == processed + rejected + dropped must still hold.
TEST(StressTest, DropPolicyAccountsForEveryFrame) {
  DetectorConfig config = SmallConfig();
  config.K = 256;  // heavier per-frame work: the producer outruns the shard
  ParallelConfig pc;
  pc.num_threads = 2;
  pc.queue_capacity = 4;
  pc.backpressure = BackpressurePolicy::kDropNewest;
  auto exec = StreamExecutor::Create(config, pc).value();
  auto id = exec->OpenStream("bursty").value();
  const int kFrames = 2000;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(i, 5.0f + (i % 11))).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_submitted, kFrames);
  EXPECT_GT(stats.frames_dropped_backpressure, 0);
  EXPECT_EQ(stats.frames_dropped_failover, 0);
  ExpectFramePartition(stats);
  size_t high_water = 0;
  for (const auto& sh : stats.shards) high_water = std::max(high_water, sh.queue_high_water);
  // Frames respect the capacity bound; control commands ride the same queue
  // but bypass it (PushUnbounded), so allow a little slack for the open /
  // drain / stats commands in flight.
  EXPECT_LE(high_water, 4u + 2u);
  EXPECT_GT(high_water, 0u);
  EXPECT_TRUE(exec->CloseStream(id).ok());
}

/// Frames submitted after CloseStream are rejected by the shard, never
/// processed against freed state; unknown ids fail synchronously.
TEST(StressTest, NoUseAfterClose) {
  ParallelConfig pc;
  pc.num_threads = 2;
  pc.queue_capacity = 16;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  EXPECT_EQ(exec->ProcessKeyFrame(999, TinyFrame(0, 1.0f)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(exec->CloseStream(999).code(), StatusCode::kNotFound);

  auto id = exec->OpenStream("short-lived").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(i, 3.0f)).ok());
  }
  ASSERT_TRUE(exec->CloseStream(id).ok());
  EXPECT_EQ(exec->CloseStream(id).code(), StatusCode::kNotFound);
  for (int i = 0; i < 20; ++i) {
    // The id was issued once, so submission succeeds — the shard rejects.
    ASSERT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(i, 3.0f)).ok());
  }
  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(SumProcessed(stats), 10);
  EXPECT_EQ(SumRejected(stats), 20);
  EXPECT_EQ(exec->num_open_streams(), 0);
  EXPECT_EQ(exec->StreamStats(id).status().code(), StatusCode::kNotFound);
}

/// Pure API hammering from several threads at once — primarily a TSan
/// target; asserts only invariants that hold under any interleaving.
TEST(StressTest, ConcurrentControlPlaneHammer) {
  ParallelConfig pc;
  pc.num_threads = 3;
  pc.queue_capacity = 8;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  const DetectorConfig config = SmallConfig();

  std::vector<std::thread> workers;
  std::atomic<int64_t> frames_ok{0};
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(static_cast<uint64_t>(w) + 17);
      for (int round = 0; round < 6; ++round) {
        auto id = exec->OpenStream("hammer-" + std::to_string(w));
        ASSERT_TRUE(id.ok());
        const int qid = 500 + w;
        (void)exec->AddQuerySketch(qid, RandomSketch(config, rng.Next()), 20, 8.0);
        for (int i = 0; i < 15; ++i) {
          if (exec->ProcessKeyFrame(*id, TinyFrame(i, static_cast<float>(w * 9 + i)))
                  .ok()) {
            frames_ok.fetch_add(1);
          }
        }
        (void)exec->RemoveQuery(qid);
        (void)exec->StreamStats(*id);
        ASSERT_TRUE(exec->CloseStream(*id).ok());
      }
    });
  }
  for (auto& t : workers) t.join();
  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_submitted, frames_ok.load());
  ExpectFramePartition(stats);
  EXPECT_EQ(exec->num_open_streams(), 0);
  EXPECT_EQ(stats.frames_dropped_backpressure, 0);  // kBlock default
  EXPECT_EQ(SumRejected(stats), 0);    // each thread closes only its own stream
}

TEST(BoundedMpscQueueTest, PushUnboundedBypassesCapacity) {
  BoundedMpscQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));      // full for frames...
  EXPECT_TRUE(q.PushUnbounded(4));  // ...but never for commands
  EXPECT_EQ(q.depth(), 3u);
  q.Close();
  EXPECT_FALSE(q.PushUnbounded(5));  // closed still refuses
  int v = 0;
  EXPECT_TRUE(q.Pop(&v) && v == 1);
  EXPECT_TRUE(q.Pop(&v) && v == 2);
  EXPECT_TRUE(q.Pop(&v) && v == 4);
  EXPECT_FALSE(q.Pop(&v));
}

/// Satellite of DESIGN.md §12: a degraded frame is *processed* (it advances
/// the stream clock, counted in frames_degraded), never confused with a
/// backpressure drop.
TEST(StressTest, DegradedFramesAreSkipsNotDrops) {
  ParallelConfig pc;
  pc.num_threads = 1;
  pc.queue_capacity = 64;
  pc.on_corruption = CorruptionPolicy::kSkip;
  pc.degraded_after_faults = 3;
  pc.recover_after_frames = 4;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  auto id = exec->OpenStream("noisy").value();

  int64_t slot = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(id, DegradedFrame(slot++)).ok());
  }
  // HealthOf rides the same FIFO as frames, so it reflects all of them.
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kDegraded);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(slot++, 1.0f)).ok());
  }
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kHealthy);

  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_submitted, 9);
  EXPECT_EQ(SumProcessed(stats), 9);  // degraded frames are processed...
  EXPECT_EQ(SumDegraded(stats), 5);   // ...and attributed to their cause
  EXPECT_EQ(stats.frames_dropped_backpressure, 0);
  EXPECT_EQ(stats.frames_dropped_failover, 0);
  EXPECT_EQ(SumQuarantined(stats), 0);  // kSkip never discards
  ExpectFramePartition(stats);
  ASSERT_EQ(stats.shard_detector_stats.size(), 1u);
  EXPECT_EQ(stats.shard_detector_stats[0].degraded_frames, 5);
  EXPECT_TRUE(exec->CloseStream(id).ok());
}

/// Quarantine state machine (no fault injection needed — it responds to the
/// degraded bit the decoder sets): enter after consecutive faults, discard
/// for an exponentially growing backoff, readmit on probation, recover.
TEST(StressTest, QuarantineBacksOffExponentiallyAndReadmits) {
  ParallelConfig pc;
  pc.num_threads = 1;
  pc.queue_capacity = 64;
  pc.on_corruption = CorruptionPolicy::kQuarantine;
  pc.degraded_after_faults = 2;
  pc.quarantine_after_faults = 4;
  pc.recover_after_frames = 4;
  pc.quarantine_backoff_frames = 8;
  pc.quarantine_backoff_max_frames = 16;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  auto id = exec->OpenStream("flaky").value();

  int64_t slot = 0;
  const auto feed = [&](int n, bool degraded) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(exec->ProcessKeyFrame(
                      id, degraded ? DegradedFrame(slot) : TinyFrame(slot, 1.0f))
                      .ok());
      ++slot;
    }
  };

  feed(4, true);  // 4 consecutive faults → quarantine (backoff 8)
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kQuarantined);
  feed(8, false);  // all 8 discarded; backoff served → probation
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kDegraded);
  feed(4, true);  // relapse before recovery → quarantine again, backoff 16
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kQuarantined);
  feed(15, false);  // backoff doubled: 15 discards are not enough
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kQuarantined);
  feed(1, false);  // 16th discard → probation again
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kDegraded);
  feed(4, false);  // clean probation → healthy
  EXPECT_EQ(exec->HealthOf(id).value(), StreamHealth::kHealthy);

  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_submitted, 36);
  EXPECT_EQ(SumQuarantined(stats), 24);  // 8 + 16 discarded
  EXPECT_EQ(SumProcessed(stats), 12);    // 8 degraded + 4 clean
  EXPECT_EQ(SumDegraded(stats), 8);
  ExpectFramePartition(stats);
  int64_t events = 0;
  for (const auto& sh : stats.shards) events += sh.quarantine_events;
  EXPECT_EQ(events, 2);
  EXPECT_TRUE(exec->CloseStream(id).ok());
}

/// CorruptionPolicy::kFail: the first fault fails the stream permanently;
/// its frames are discarded, the error is sticky in Drain, and co-resident
/// streams on the same shard are unaffected.
TEST(StressTest, FailPolicyIsStickyPerStream) {
  ParallelConfig pc;
  pc.num_threads = 1;  // both streams share the one shard
  pc.queue_capacity = 64;
  pc.on_corruption = CorruptionPolicy::kFail;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  auto bad = exec->OpenStream("bad").value();
  auto good = exec->OpenStream("good").value();

  ASSERT_TRUE(exec->ProcessKeyFrame(bad, DegradedFrame(0)).ok());
  EXPECT_EQ(exec->HealthOf(bad).value(), StreamHealth::kFailed);
  for (int i = 1; i < 6; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(bad, TinyFrame(i, 1.0f)).ok());
    ASSERT_TRUE(exec->ProcessKeyFrame(good, TinyFrame(i, 2.0f)).ok());
  }
  EXPECT_EQ(exec->HealthOf(bad).value(), StreamHealth::kFailed);
  EXPECT_EQ(exec->HealthOf(good).value(), StreamHealth::kHealthy);

  EXPECT_EQ(exec->Drain().code(), StatusCode::kCorruption);
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(SumFailed(stats), 5);    // the frames after the fatal one
  EXPECT_EQ(SumProcessed(stats), 6); // 1 fatal degraded + 5 good-stream
  ExpectFramePartition(stats);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].streams_failed, 1);
  EXPECT_TRUE(exec->CloseStream(bad).ok());
  EXPECT_TRUE(exec->CloseStream(good).ok());
}

/// The executor.h:104 race: frames racing CloseStream under kDropNewest.
/// Whatever the interleaving, every submitted frame must land in exactly
/// one bucket — processed, shard-rejected, or queue-dropped.
TEST(StressTest, DropNewestCloseRaceCountsEachFrameOnce) {
  for (int round = 0; round < 20; ++round) {
    ParallelConfig pc;
    pc.num_threads = 2;
    pc.queue_capacity = 2;
    pc.backpressure = BackpressurePolicy::kDropNewest;
    auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
    auto id = exec->OpenStream("racer").value();
    std::thread feeder([&] {
      for (int i = 0; i < 300; ++i) {
        EXPECT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(i, 2.0f)).ok());
      }
    });
    ASSERT_TRUE(exec->CloseStream(id).ok());  // races the feeder
    feeder.join();
    ASSERT_TRUE(exec->Drain().ok());
    ExpectFramePartition(exec->Stats());
  }
}

/// A watchdog with a generous tick never fails over shards that are
/// draining normally.
TEST(StressTest, WatchdogIdlesOnHealthyShards) {
  ParallelConfig pc;
  pc.num_threads = 2;
  pc.queue_capacity = 32;
  pc.watchdog_ms = 200;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  ASSERT_TRUE(exec->AddQuery(1, QueryFrames(), 16.0).ok());
  auto id = exec->OpenStream("calm").value();
  int64_t slot = 0;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(id, TinyFrame(slot++, -80.0f)).ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        exec->ProcessKeyFrame(id, TinyFrame(slot++, 100.0f + i)).ok());
  }
  ASSERT_TRUE(exec->CloseStream(id).ok());
  ASSERT_TRUE(exec->Drain().ok());
  const ExecutorStats stats = exec->Stats();
  EXPECT_EQ(stats.frames_dropped_failover, 0);
  for (const auto& sh : stats.shards) EXPECT_FALSE(sh.failed_over);
  EXPECT_FALSE(exec->matches().empty());
}

}  // namespace
}  // namespace vcd
