/// \file restore_equivalence_test.cc
/// The acceptance bar of the checkpoint/restore subsystem: a run that is
/// interrupted at an arbitrary frame boundary, snapshotted, and resumed on
/// a fresh engine produces *byte-identical* matches — and bit-identical
/// detector statistics (RunningStats accumulators included) — to a run that
/// was never interrupted. Both the serial StreamMonitor and the parallel
/// StreamExecutor are pinned, and the snapshot round-trips through the full
/// on-disk codec (EncodeState → EncodeSnapshot → DecodeSnapshot →
/// DecodeState), not just the in-memory structs.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.h"
#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/detector.h"
#include "core/monitor.h"
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
using core::StreamMonitor;
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

/// Round-trips the in-memory state through the full binary snapshot format.
ckpt::SnapshotState ThroughCodec(const ckpt::SnapshotState& state,
                                 uint64_t epoch) {
  const auto image = ckpt::EncodeSnapshot(epoch, ckpt::EncodeState(state));
  auto snap = ckpt::DecodeSnapshot(image.data(), image.size());
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  auto back = ckpt::DecodeState(*snap);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return *back;
}

class RestoreEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RestoreEquivalenceTest, SerialKillRestoreIsByteIdentical) {
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  const auto qframes = QueryFrames();

  auto uninterrupted = StreamMonitor::Create(config).value();
  ASSERT_TRUE(uninterrupted->AddQuery(1, qframes).ok());
  auto sid = uninterrupted->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < kTotalFrames; ++i) {
    ASSERT_TRUE(
        uninterrupted->ProcessKeyFrame(*sid, TinyFrame(i, FillAt(i))).ok());
  }
  const auto stats_a = uninterrupted->StreamStats(*sid);
  ASSERT_TRUE(stats_a.ok());
  ASSERT_TRUE(uninterrupted->CloseStream(*sid).ok());
  const auto matches_a = uninterrupted->matches();
  ASSERT_FALSE(matches_a.empty()) << "scenario must actually match";

  // Interrupted run: checkpoint at `cut`, crash, restore, resume.
  auto first = StreamMonitor::Create(config).value();
  ASSERT_TRUE(first->AddQuery(1, qframes).ok());
  auto sid_b = first->OpenStream("s");
  ASSERT_TRUE(sid_b.ok());
  ASSERT_EQ(*sid_b, *sid);
  for (int i = 0; i < cut; ++i) {
    ASSERT_TRUE(first->ProcessKeyFrame(*sid_b, TinyFrame(i, FillAt(i))).ok());
  }
  core::MonitorCkpt mc = first->ExportCkpt();

  // Through the binary codec, as a real crash-restart would read it.
  ckpt::SnapshotState state;
  ckpt::StampMeta(config, &state);
  state.next_stream_id = mc.next_stream_id;
  state.streams = mc.streams;
  for (const StreamMatch& m : mc.matches) {
    state.matches.push_back(ckpt::SnapshotMatch{0, m});
  }
  ckpt::SnapshotState decoded = ThroughCodec(state, 1);

  auto resumed = StreamMonitor::Create(config).value();
  ASSERT_TRUE(resumed->AddQuery(1, qframes).ok());
  core::MonitorCkpt mc2;
  mc2.next_stream_id = decoded.next_stream_id;
  mc2.streams = decoded.streams;
  for (const auto& m : decoded.matches) mc2.matches.push_back(m.match);
  ASSERT_TRUE(resumed->RestoreCkpt(mc2).ok());
  for (int i = cut; i < kTotalFrames; ++i) {
    ASSERT_TRUE(resumed->ProcessKeyFrame(*sid_b, TinyFrame(i, FillAt(i))).ok());
  }
  const auto stats_b = resumed->StreamStats(*sid_b);
  ASSERT_TRUE(stats_b.ok());
  ASSERT_TRUE(resumed->CloseStream(*sid_b).ok());

  ExpectSameMatches(matches_a, resumed->matches());
  ExpectSameStats(*stats_a, *stats_b);
}

TEST_P(RestoreEquivalenceTest, ParallelKillRestoreIsByteIdentical) {
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  ParallelConfig pc;
  pc.num_threads = 2;
  const auto qframes = QueryFrames();
  constexpr int kStreams = 3;

  auto run_frames = [&](StreamExecutor* exec, const std::vector<int>& sids,
                        int from, int to) {
    for (int i = from; i < to; ++i) {
      for (size_t s = 0; s < sids.size(); ++s) {
        const float jitter = static_cast<float>(s) * 0.1f;
        ASSERT_TRUE(exec->ProcessKeyFrame(
                            sids[s], TinyFrame(i, FillAt(i) + jitter))
                        .ok());
      }
    }
  };

  auto uninterrupted = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(uninterrupted->AddQuery(1, qframes).ok());
  std::vector<int> sids;
  for (int s = 0; s < kStreams; ++s) {
    auto sid = uninterrupted->OpenStream("s" + std::to_string(s));
    ASSERT_TRUE(sid.ok());
    sids.push_back(*sid);
  }
  run_frames(uninterrupted.get(), sids, 0, kTotalFrames);
  for (int sid : sids) ASSERT_TRUE(uninterrupted->CloseStream(sid).ok());
  ASSERT_TRUE(uninterrupted->Drain().ok());
  const auto matches_a = uninterrupted->matches();
  ASSERT_FALSE(matches_a.empty());

  auto first = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(first->AddQuery(1, qframes).ok());
  std::vector<int> sids_b;
  for (int s = 0; s < kStreams; ++s) {
    sids_b.push_back(*first->OpenStream("s" + std::to_string(s)));
  }
  ASSERT_EQ(sids_b, sids);
  run_frames(first.get(), sids_b, 0, cut);
  auto ec = first->Checkpoint();
  ASSERT_TRUE(ec.ok()) << ec.status().ToString();

  ckpt::SnapshotState state;
  ckpt::StampMeta(config, &state);
  state.next_stream_id = ec->next_stream_id;
  state.next_seq = ec->next_seq;
  state.streams = ec->streams;
  for (const auto& m : ec->matches) {
    state.matches.push_back(ckpt::SnapshotMatch{m.seq, m.match});
  }
  ckpt::SnapshotState decoded = ThroughCodec(state, 1);

  auto resumed = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(resumed->AddQuery(1, qframes).ok());
  parallel::ExecutorCkpt ec2;
  ec2.next_stream_id = decoded.next_stream_id;
  ec2.next_seq = decoded.next_seq;
  ec2.streams = decoded.streams;
  for (const auto& m : decoded.matches) {
    ec2.matches.push_back(parallel::SeqMatch{m.seq, m.match});
  }
  ASSERT_TRUE(resumed->RestoreCkpt(ec2).ok());
  run_frames(resumed.get(), sids_b, cut, kTotalFrames);
  for (int sid : sids_b) ASSERT_TRUE(resumed->CloseStream(sid).ok());
  ASSERT_TRUE(resumed->Drain().ok());

  ExpectSameMatches(matches_a, resumed->matches());
}

TEST_P(RestoreEquivalenceTest, SerialAndParallelSnapshotsInterchange) {
  // Engine-agnostic codec: a snapshot taken by the serial monitor restores
  // onto the parallel executor (and produces the same continuation), since
  // both write the same STREAMS section.
  const int cut = GetParam();
  const DetectorConfig config = SmallConfig();
  const auto qframes = QueryFrames();

  auto serial = StreamMonitor::Create(config).value();
  ASSERT_TRUE(serial->AddQuery(1, qframes).ok());
  auto sid = serial->OpenStream("s");
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < cut; ++i) {
    ASSERT_TRUE(serial->ProcessKeyFrame(*sid, TinyFrame(i, FillAt(i))).ok());
  }
  core::MonitorCkpt mc = serial->ExportCkpt();
  // Reference continuation on the serial engine itself.
  for (int i = cut; i < kTotalFrames; ++i) {
    ASSERT_TRUE(serial->ProcessKeyFrame(*sid, TinyFrame(i, FillAt(i))).ok());
  }
  ASSERT_TRUE(serial->CloseStream(*sid).ok());

  ParallelConfig pc;
  pc.num_threads = 2;
  auto exec = StreamExecutor::Create(config, pc).value();
  ASSERT_TRUE(exec->AddQuery(1, qframes).ok());
  parallel::ExecutorCkpt ec;
  ec.next_stream_id = mc.next_stream_id;
  ec.streams = mc.streams;
  for (const StreamMatch& m : mc.matches) {
    ec.matches.push_back(parallel::SeqMatch{0, m});
  }
  ASSERT_TRUE(exec->RestoreCkpt(ec).ok());
  for (int i = cut; i < kTotalFrames; ++i) {
    ASSERT_TRUE(exec->ProcessKeyFrame(*sid, TinyFrame(i, FillAt(i))).ok());
  }
  ASSERT_TRUE(exec->CloseStream(*sid).ok());
  ASSERT_TRUE(exec->Drain().ok());
  ExpectSameMatches(serial->matches(), exec->matches());
}

/// A snapshot holds raw signature words and min-hash arrays, never slab
/// layout, so it restores onto a detector whose pools run another kernel
/// ISA. Export mid-copy under one ISA, restore under the other (scalar to
/// the dispatched best and back), finish the stream: matches and stats must
/// equal an uninterrupted best-ISA run.
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
      feed(uninterrupted.get(), 0, kTotalFrames);
      ASSERT_TRUE(uninterrupted->Finish().ok());
      const std::vector<core::Match>& want = uninterrupted->matches();
      ASSERT_FALSE(want.empty()) << "scenario must actually match";

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

// Cut points: before the copy, mid-copy (candidates live), right at the
// copy's end (matches already emitted), and in the trailing noise.
INSTANTIATE_TEST_SUITE_P(Cuts, RestoreEquivalenceTest,
                         ::testing::Values(7, 33, 61, 70));

}  // namespace
}  // namespace vcd
