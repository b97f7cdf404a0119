/// \file restore_equivalence_test.cc
/// The acceptance bar of the checkpoint/restore subsystem: a run that is
/// interrupted at an arbitrary frame boundary, snapshotted, and resumed on
/// a fresh executor produces *byte-identical* matches — and bit-identical
/// detector statistics (RunningStats accumulators included) — to a run that
/// was never interrupted. The snapshot round-trips through the full on-disk
/// codec (EncodeState → EncodeSnapshot → DecodeSnapshot → DecodeState), not
/// just the in-memory structs, and restores at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.h"
#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/detector.h"
#include "core/query_store.h"
#include "parallel/executor.h"
#include "sketch/kernels/kernels.h"
#include "util/stats.h"
#include "video/partial_decoder.h"

namespace vcd {
namespace {

using core::DetectorConfig;
using core::ParallelConfig;
using core::StreamMatch;
using parallel::StreamExecutor;

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
    f.dc[i] =
        8.0f * 60.0f * std::sin(0.7f * fill + 0.9f * static_cast<float>(i));
  }
  return f;
}

std::vector<video::DcFrame> QueryFrames() {
  std::vector<video::DcFrame> frames;
  for (int i = 0; i < 40; ++i) frames.push_back(TinyFrame(i, 100.0f + i));
  return frames;
}

/// The scenario feed: noise, an embedded copy of the query, more noise.
float FillAt(int round) {
  if (round < 20) return -80.0f + static_cast<float>(round % 5);
  if (round < 60) return 100.0f + static_cast<float>(round - 20);
  return -40.0f + static_cast<float>(round % 7);
}
constexpr int kTotalFrames = 75;

void ExpectSameMatches(const std::vector<StreamMatch>& a,
                       const std::vector<StreamMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_id, b[i].stream_id) << i;
    EXPECT_EQ(a[i].stream_name, b[i].stream_name) << i;
    EXPECT_EQ(a[i].match.query_id, b[i].match.query_id) << i;
    EXPECT_EQ(a[i].match.start_frame, b[i].match.start_frame) << i;
    EXPECT_EQ(a[i].match.end_frame, b[i].match.end_frame) << i;
    EXPECT_EQ(a[i].match.start_time, b[i].match.start_time) << i;
    EXPECT_EQ(a[i].match.end_time, b[i].match.end_time) << i;
    EXPECT_EQ(a[i].match.similarity, b[i].match.similarity) << i;
  }
}

void ExpectSameRaw(const RunningStats& a, const RunningStats& b) {
  const auto ra = a.ToRaw();
  const auto rb = b.ToRaw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.mean, rb.mean);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

void ExpectSameStats(const core::DetectorStats& a, const core::DetectorStats& b) {
  EXPECT_EQ(a.key_frames, b.key_frames);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.sketch_combines, b.sketch_combines);
  EXPECT_EQ(a.sketch_compares, b.sketch_compares);
  EXPECT_EQ(a.bitsig_ors, b.bitsig_ors);
  EXPECT_EQ(a.bitsig_builds, b.bitsig_builds);
  EXPECT_EQ(a.candidates_pruned, b.candidates_pruned);
  EXPECT_EQ(a.degraded_frames, b.degraded_frames);
  EXPECT_EQ(a.degraded_windows, b.degraded_windows);
  EXPECT_EQ(a.out_of_order_frames, b.out_of_order_frames);
  ExpectSameRaw(a.signatures_per_window, b.signatures_per_window);
  ExpectSameRaw(a.candidates_per_window, b.candidates_per_window);
  ExpectSameRaw(a.pool_slots_per_window, b.pool_slots_per_window);
}

/// Round-trips an executor checkpoint through the full binary snapshot
/// format, as a real crash-restart would read it.
ckpt::SnapshotState ThroughCodec(const ckpt::SnapshotState& state) {
  const auto image = ckpt::EncodeSnapshot(1, ckpt::EncodeState(state));
  auto snap = ckpt::DecodeSnapshot(image.data(), image.size());
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  auto back = ckpt::DecodeState(*snap);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return *back;
}

std::unique_ptr<StreamExecutor> MakeExecutor(int threads) {
  ParallelConfig pc;
  pc.num_threads = threads;
  auto exec = StreamExecutor::Create(SmallConfig(), pc).value();
  EXPECT_TRUE(exec->AddQuery(1, QueryFrames()).ok());
  return exec;
}

/// Feeds frames [from, to) round-robin to \p sids; stream s carries the
/// scenario with a small per-stream jitter.
void Feed(StreamExecutor* exec, const std::vector<int>& sids, int from, int to) {
  for (int i = from; i < to; ++i) {
    for (size_t s = 0; s < sids.size(); ++s) {
      const float jitter = static_cast<float>(s) * 0.1f;
      ASSERT_TRUE(exec->ProcessKeyFrame(sids[s], TinyFrame(i, FillAt(i) + jitter)).ok());
    }
  }
}

/// Everything a finished run reports: the merged match log and, taken
/// before the close, the first stream's detector stats.
struct RunOutput {
  std::vector<StreamMatch> matches;
  core::DetectorStats stats;
};

/// Feeds frames [from, kTotalFrames), then reads stats, closes every stream
/// and drains.
RunOutput Finish(StreamExecutor* exec, const std::vector<int>& sids, int from) {
  Feed(exec, sids, from, kTotalFrames);
  RunOutput out;
  auto stats = exec->StreamStats(sids.front());
  EXPECT_TRUE(stats.ok());
  if (stats.ok()) out.stats = *stats;
  for (int sid : sids) EXPECT_TRUE(exec->CloseStream(sid).ok());
  EXPECT_TRUE(exec->Drain().ok());
  out.matches = exec->matches();
  return out;
}

/// Uninterrupted vs. checkpoint-at-`cut`, crash, restore on a fresh
/// executor with the same thread count, resume.
std::pair<RunOutput, RunOutput> KillRestore(int threads, int streams, int cut) {
  std::vector<int> sids;
  auto uninterrupted = MakeExecutor(threads);
  for (int s = 0; s < streams; ++s) {
    sids.push_back(*uninterrupted->OpenStream(std::string("s") + std::to_string(s)));
  }
  RunOutput a = Finish(uninterrupted.get(), sids, 0);

  auto first = MakeExecutor(threads);
  for (int s = 0; s < streams; ++s) {
    EXPECT_EQ(*first->OpenStream(std::string("s") + std::to_string(s)),
              sids[static_cast<size_t>(s)]);
  }
  Feed(first.get(), sids, 0, cut);
  auto ec = first->Checkpoint();
  EXPECT_TRUE(ec.ok()) << ec.status().ToString();

  auto resumed = MakeExecutor(threads);
  EXPECT_TRUE(resumed->RestoreCkpt(ThroughCodec(*ec)).ok());
  return {std::move(a), Finish(resumed.get(), sids, cut)};
}

class RestoreEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RestoreEquivalenceTest, SerialKillRestoreIsByteIdentical) {
  const auto [a, b] = KillRestore(/*threads=*/1, /*streams=*/1, GetParam());
  ASSERT_FALSE(a.matches.empty()) << "scenario must actually match";
  ExpectSameMatches(a.matches, b.matches);
  ExpectSameStats(a.stats, b.stats);
}

TEST_P(RestoreEquivalenceTest, ParallelKillRestoreIsByteIdentical) {
  const auto [a, b] = KillRestore(/*threads=*/2, /*streams=*/3, GetParam());
  ASSERT_FALSE(a.matches.empty()) << "scenario must actually match";
  ExpectSameMatches(a.matches, b.matches);
  ExpectSameStats(a.stats, b.stats);
}

TEST_P(RestoreEquivalenceTest, SerialAndParallelSnapshotsInterchange) {
  // The codec knows no thread count: a snapshot taken at 1 thread restores
  // onto 2 threads and continues exactly as the 1-thread run does. So does
  // the serial shape, with every match at seq 0, next_seq 1 and the health
  // machine at its defaults: continuing the stream reads none of them.
  const int cut = GetParam();
  auto reference = MakeExecutor(1);
  const std::vector<int> sids = {*reference->OpenStream("s")};
  const RunOutput want = Finish(reference.get(), sids, 0);
  ASSERT_FALSE(want.matches.empty()) << "scenario must actually match";

  auto first = MakeExecutor(1);
  ASSERT_EQ(*first->OpenStream("s"), sids.front());
  Feed(first.get(), sids, 0, cut);
  auto ec = first->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();

  ckpt::SnapshotState serial_shape = *ec;
  serial_shape.next_seq = 1;
  for (auto& m : serial_shape.matches) m.seq = 0;
  for (core::StreamCkpt& s : serial_shape.streams) {
    core::StreamCkpt defaults;
    defaults.stream_id = s.stream_id;
    defaults.name = s.name;
    defaults.detector = std::move(s.detector);
    s = std::move(defaults);
  }
  for (const ckpt::SnapshotState& snapshot : {*ec, serial_shape}) {
    auto resumed = MakeExecutor(2);
    ASSERT_TRUE(resumed->RestoreCkpt(ThroughCodec(snapshot)).ok());
    const RunOutput got = Finish(resumed.get(), sids, cut);
    ExpectSameMatches(want.matches, got.matches);
    ExpectSameStats(want.stats, got.stats);
  }
}

/// A snapshot holds raw signature words and min-hash arrays, never slab
/// layout, so it restores onto a detector whose pools run another kernel
/// ISA. Export mid-copy under one ISA, restore under the other (scalar to
/// the dispatched best and back), finish the stream: the matches from the
/// cut on and the stats must equal an uninterrupted best-ISA run's.
TEST(KernelIsaRestoreTest, SnapshotRestoresAcrossIsas) {
  namespace sk = sketch::kernels;
  const std::string best = sk::ActiveOps().name;
  const auto qframes = QueryFrames();
  constexpr int kCut = 33;  // mid-copy: candidates carry live state
  for (core::Representation rep :
       {core::Representation::kBit, core::Representation::kSketch}) {
    for (core::CombinationOrder order :
         {core::CombinationOrder::kSequential, core::CombinationOrder::kGeometric}) {
      SCOPED_TRACE(::testing::Message() << core::RepresentationName(rep) << " "
                                        << core::CombinationOrderName(order));
      DetectorConfig config = SmallConfig();
      config.representation = rep;
      config.order = order;
      // Pools capture the kernel table at construction.
      const auto make = [&](const std::string& isa) {
        EXPECT_TRUE(sk::ForceIsa(isa).ok()) << isa;
        auto det = core::CopyDetector::Create(config).value();
        EXPECT_TRUE(det->AddQuery(1, qframes).ok());
        return det;
      };
      const auto feed = [](core::CopyDetector* det, int from, int to) {
        for (int i = from; i < to; ++i) {
          ASSERT_TRUE(det->ProcessKeyFrame(TinyFrame(i, FillAt(i))).ok());
        }
      };

      auto uninterrupted = make(best);
      feed(uninterrupted.get(), 0, kCut);
      const size_t before_cut = uninterrupted->matches().size();
      feed(uninterrupted.get(), kCut, kTotalFrames);
      ASSERT_TRUE(uninterrupted->Finish().ok());
      ASSERT_FALSE(uninterrupted->matches().empty()) << "scenario must actually match";
      // A restored detector reports only the matches after the cut; where
      // the copy matched before it, the restored report cooldown must keep
      // it from matching again.
      std::vector<core::Match> want = uninterrupted->matches();
      want.erase(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(before_cut));

      for (const auto& [from, to] : {std::pair<std::string, std::string>{"scalar", best},
                                     std::pair<std::string, std::string>{best, "scalar"}}) {
        SCOPED_TRACE(from + " -> " + to);
        auto first = make(from);
        feed(first.get(), 0, kCut);
        const core::DetectorCkptState snapshot = first->ExportCkptState();
        ASSERT_FALSE(snapshot.candidates.empty());
        auto resumed = make(to);
        const Status st = resumed->RestoreCkptState(snapshot);
        ASSERT_TRUE(st.ok()) << st.ToString();
        feed(resumed.get(), kCut, kTotalFrames);
        ASSERT_TRUE(resumed->Finish().ok());
        const std::vector<core::Match>& got = resumed->matches();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          // Field by field: Match has padding, so raw bytes may differ.
          EXPECT_EQ(got[i].query_id, want[i].query_id) << i;
          EXPECT_EQ(got[i].start_frame, want[i].start_frame) << i;
          EXPECT_EQ(got[i].end_frame, want[i].end_frame) << i;
          EXPECT_EQ(got[i].start_time, want[i].start_time) << i;
          EXPECT_EQ(got[i].end_time, want[i].end_time) << i;
          EXPECT_EQ(got[i].similarity, want[i].similarity) << i;
        }
        ExpectSameStats(uninterrupted->stats(), resumed->stats());
      }
    }
  }
  ASSERT_TRUE(sk::ForceIsa(best).ok());
}

/// Without the index a Sketch candidate is tested against every subscribed
/// query, and signatures_per_window counts them. A query removed before the
/// cut keeps its ordinal in the uninterrupted executor's portfolio but never
/// enters the resumed one, which re-subscribes the active queries only:
/// stats must still match, so the removed ordinal must not count.
TEST(RestoreAfterRemovalTest, SketchNoIndexStatsMatchUninterrupted) {
  DetectorConfig config = SmallConfig();
  config.representation = core::Representation::kSketch;
  config.order = core::CombinationOrder::kSequential;
  config.use_index = false;
  constexpr int kRemoveAt = 10;
  constexpr int kCut = 33;
  const auto make = [&config](bool with_removed_query) {
    ParallelConfig pc;
    pc.num_threads = 1;
    auto exec = StreamExecutor::Create(config, pc).value();
    EXPECT_TRUE(exec->AddQuery(1, QueryFrames()).ok());
    if (with_removed_query) {
      std::vector<video::DcFrame> other;
      for (int i = 0; i < 40; ++i) other.push_back(TinyFrame(i, -300.0f - i));
      EXPECT_TRUE(exec->AddQuery(2, other).ok());
    }
    return exec;
  };

  auto uninterrupted = make(true);
  const std::vector<int> sids = {*uninterrupted->OpenStream("s")};
  Feed(uninterrupted.get(), sids, 0, kRemoveAt);
  ASSERT_TRUE(uninterrupted->RemoveQuery(2).ok());
  const RunOutput want = Finish(uninterrupted.get(), sids, kRemoveAt);
  ASSERT_FALSE(want.matches.empty()) << "scenario must actually match";

  auto first = make(true);
  ASSERT_EQ(*first->OpenStream("s"), sids.front());
  Feed(first.get(), sids, 0, kRemoveAt);
  ASSERT_TRUE(first->RemoveQuery(2).ok());
  Feed(first.get(), sids, kRemoveAt, kCut);
  auto ec = first->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();

  auto resumed = make(false);
  ASSERT_TRUE(resumed->RestoreCkpt(ThroughCodec(*ec)).ok());
  const RunOutput got = Finish(resumed.get(), sids, kCut);
  ExpectSameMatches(want.matches, got.matches);
  ExpectSameStats(want.stats, got.stats);
}

/// Streams installed on shards of one executor, summed over its shards.
int StreamsOnShards(StreamExecutor* exec) {
  int n = 0;
  for (const parallel::ShardStats& s : exec->Stats().shards) n += s.num_streams;
  return n;
}

/// A snapshot that fails to restore leaves the executor as it was. Its
/// second stream references query id 999, which the re-imported portfolio
/// lacks; the first stream, restored fine on its own shard, must not be
/// installed either — at 1 thread on the same shard, at 2 on the other.
TEST(RestoreAllOrNothingTest, FailedRestoreInstallsNoStream) {
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    auto first = MakeExecutor(threads);
    const std::vector<int> sids = {*first->OpenStream("a"), *first->OpenStream("b")};
    Feed(first.get(), sids, 0, 40);
    auto good = first->Checkpoint();
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    ASSERT_EQ(good->streams.size(), 2u);
    ckpt::SnapshotState bad = *good;
    bad.streams[1].detector.queries.push_back({999, -1.0});

    // The ids the snapshot would have taken open fresh streams.
    auto resumed = MakeExecutor(threads);
    EXPECT_EQ(resumed->RestoreCkpt(bad).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(resumed->num_open_streams(), 0);
    auto sid = resumed->OpenStream("fresh");
    ASSERT_TRUE(sid.ok());
    EXPECT_EQ(*sid, sids.front());
    auto stats = resumed->StreamStats(*sid);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->key_frames, 0);
    EXPECT_EQ(StreamsOnShards(resumed.get()), 1);

    // The unbroken snapshot still restores onto an executor a failed
    // restore left behind.
    auto retried = MakeExecutor(threads);
    EXPECT_FALSE(retried->RestoreCkpt(bad).ok());
    ASSERT_TRUE(retried->RestoreCkpt(*good).ok());
    EXPECT_EQ(retried->num_open_streams(), 2);
    EXPECT_EQ(StreamsOnShards(retried.get()), 2);
    auto restored = retried->StreamStats(sids.front());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->key_frames, 40);
  }
}

/// META records every detector setting a snapshot's state depends on,
/// pruning and the index included: a snapshot taken with pruning off and
/// the index on is refused by an executor with pruning on, and by one with
/// the index off, before any stream is installed.
TEST(RestoreMetaTest, PruningOrIndexMismatchIsRefused) {
  DetectorConfig taken = SmallConfig();
  taken.enable_pruning = false;
  ParallelConfig pc;
  pc.num_threads = 1;
  auto first = StreamExecutor::Create(taken, pc).value();
  ASSERT_TRUE(first->AddQuery(1, QueryFrames()).ok());
  const std::vector<int> sids = {*first->OpenStream("s")};
  Feed(first.get(), sids, 0, 40);
  auto snapshot = first->Checkpoint();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  DetectorConfig pruned = taken;
  pruned.enable_pruning = true;
  DetectorConfig no_index = taken;
  no_index.use_index = false;
  for (const DetectorConfig& config : {pruned, no_index}) {
    auto resumed = StreamExecutor::Create(config, pc).value();
    ASSERT_TRUE(resumed->AddQuery(1, QueryFrames()).ok());
    const Status st = resumed->RestoreCkpt(ThroughCodec(*snapshot));
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_EQ(resumed->num_open_streams(), 0);
    EXPECT_EQ(StreamsOnShards(resumed.get()), 0);
  }
  // The same snapshot restores under the settings it was taken with.
  auto same = StreamExecutor::Create(taken, pc).value();
  ASSERT_TRUE(same->AddQuery(1, QueryFrames()).ok());
  ASSERT_TRUE(same->RestoreCkpt(ThroughCodec(*snapshot)).ok());
  EXPECT_EQ(same->num_open_streams(), 1);
}

// Cut points: before the copy, mid-copy (candidates live), right at the
// copy's end (matches already emitted), and in the trailing noise.
INSTANTIATE_TEST_SUITE_P(Cuts, RestoreEquivalenceTest,
                         ::testing::Values(7, 33, 61, 70));

}  // namespace
}  // namespace vcd
