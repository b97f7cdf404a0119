/// \file governor_test.cc
/// Properties of the overload governor's hysteresis machine (DESIGN.md §17):
///   - no transition ever fires without its watermark condition holding for
///     the full dwell (seeded random-walk property against a shadow trace);
///   - the shed policy is monotone in priority class and never starves any
///     class;
///   - checkpoint export/restore round-trips exactly and clamps garbage
///     conservatively;
///   - QosConfig::Validate rejects each out-of-range field.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "qos/governor.h"
#include "qos/qos.h"
#include "util/rng.h"

namespace vcd {
namespace {

using qos::DegradeKnobs;
using qos::Governor;
using qos::GovernorShardCkpt;
using qos::Priority;
using qos::QosConfig;
using qos::QosState;
using qos::ShardSample;
using qos::ShouldShed;
using qos::Transition;

QosConfig TestConfig() {
  QosConfig c;
  c.enabled = true;
  c.degrade_watermark = 0.5;
  c.shed_watermark = 0.85;
  c.recover_watermark = 0.25;
  c.escalate_dwell_ticks = 3;
  c.recover_dwell_ticks = 4;
  return c;
}

ShardSample Fill(double fill, size_t capacity = 100) {
  ShardSample s;
  s.queue_capacity = capacity;
  s.queue_depth = static_cast<size_t>(fill * static_cast<double>(capacity));
  return s;
}

/// Ticks a single-shard governor once and returns the fired transitions.
std::vector<Transition> TickOne(Governor& g, const ShardSample& s) {
  std::vector<Transition> out;
  g.Tick({s}, &out);
  return out;
}

TEST(GovernorTest, StaysNormalBelowTheDegradeWatermark) {
  Governor g(TestConfig(), 1);
  for (int i = 0; i < 200; ++i) {
    // Right below the watermark, forever: never a transition.
    EXPECT_TRUE(TickOne(g, Fill(0.49)).empty());
  }
  EXPECT_EQ(g.shard_state(0), QosState::kNormal);
  EXPECT_EQ(g.global_state(), QosState::kNormal);
}

TEST(GovernorTest, EscalationWaitsForTheFullDwell) {
  const QosConfig c = TestConfig();
  Governor g(c, 1);
  // escalate_dwell_ticks - 1 hot ticks: still Normal.
  for (int i = 0; i < c.escalate_dwell_ticks - 1; ++i) {
    EXPECT_TRUE(TickOne(g, Fill(0.9)).empty());
  }
  // One cool tick resets the streak entirely.
  EXPECT_TRUE(TickOne(g, Fill(0.1)).empty());
  for (int i = 0; i < c.escalate_dwell_ticks - 1; ++i) {
    EXPECT_TRUE(TickOne(g, Fill(0.9)).empty());
  }
  EXPECT_EQ(g.shard_state(0), QosState::kNormal);
  // The dwell-th consecutive hot tick fires Normal -> Degraded.
  const auto fired = TickOne(g, Fill(0.9));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].from, QosState::kNormal);
  EXPECT_EQ(fired[0].to, QosState::kDegraded);
  EXPECT_EQ(g.shard_state(0), QosState::kDegraded);
}

TEST(GovernorTest, FullArcNormalDegradedSheddingAndBack) {
  const QosConfig c = TestConfig();
  Governor g(c, 1);
  // Normal -> Degraded under degrade-hot pressure.
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) TickOne(g, Fill(0.6));
  ASSERT_EQ(g.shard_state(0), QosState::kDegraded);
  // Degraded holds (not shed-hot, not calm).
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(TickOne(g, Fill(0.6)).empty());
  // Degraded -> Shedding under shed-hot pressure.
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) TickOne(g, Fill(0.9));
  ASSERT_EQ(g.shard_state(0), QosState::kShedding);
  // Shedding -> Degraded as soon as the shed condition is gone for the
  // recovery dwell (0.6 is still degrade-hot — full calm is not required).
  for (int i = 0; i < c.recover_dwell_ticks; ++i) TickOne(g, Fill(0.6));
  ASSERT_EQ(g.shard_state(0), QosState::kDegraded);
  // Degraded -> Recovering -> Normal under sustained calm.
  for (int i = 0; i < c.recover_dwell_ticks; ++i) TickOne(g, Fill(0.1));
  ASSERT_EQ(g.shard_state(0), QosState::kRecovering);
  for (int i = 0; i < c.recover_dwell_ticks; ++i) TickOne(g, Fill(0.1));
  EXPECT_EQ(g.shard_state(0), QosState::kNormal);
}

TEST(GovernorTest, RecoveringRelapsesUnderReturningLoad) {
  const QosConfig c = TestConfig();
  Governor g(c, 1);
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) TickOne(g, Fill(0.6));
  for (int i = 0; i < c.recover_dwell_ticks; ++i) TickOne(g, Fill(0.1));
  ASSERT_EQ(g.shard_state(0), QosState::kRecovering);
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) TickOne(g, Fill(0.7));
  EXPECT_EQ(g.shard_state(0), QosState::kDegraded);
}

TEST(GovernorTest, LagSignalEscalatesWithAnEmptyQueue) {
  QosConfig c = TestConfig();
  c.degrade_lag_us = 500000;
  Governor g(c, 1);
  ShardSample s;  // depth 0: fill pressure is zero
  s.stream_lag_us = 600000;
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) g.Tick({s}, nullptr);
  EXPECT_EQ(g.shard_state(0), QosState::kDegraded);

  // With the lag signal disabled (0), the same lag is ignored.
  Governor off(TestConfig(), 1);
  for (int i = 0; i < 20; ++i) off.Tick({s}, nullptr);
  EXPECT_EQ(off.shard_state(0), QosState::kNormal);
}

TEST(GovernorTest, GlobalStateIsMaxSeverityAcrossShards) {
  const QosConfig c = TestConfig();
  Governor g(c, 3);
  // Shard 1 degrade-hot, shard 2 shed-hot, shard 0 idle.
  for (int i = 0; i < 2 * c.escalate_dwell_ticks; ++i) {
    g.Tick({Fill(0.0), Fill(0.6), Fill(0.95)}, nullptr);
  }
  EXPECT_EQ(g.shard_state(0), QosState::kNormal);
  EXPECT_EQ(g.shard_state(1), QosState::kDegraded);
  EXPECT_EQ(g.shard_state(2), QosState::kShedding);
  EXPECT_EQ(g.global_state(), QosState::kShedding);
}

TEST(GovernorTest, MissingTrailingSamplesCountAsIdle) {
  const QosConfig c = TestConfig();
  Governor g(c, 2);
  // Only shard 0 is sampled; shard 1 must be treated as idle, not hot.
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) {
    g.Tick({Fill(0.9)}, nullptr);
  }
  EXPECT_EQ(g.shard_state(0), QosState::kDegraded);
  EXPECT_EQ(g.shard_state(1), QosState::kNormal);
}

/// The core property: replay a seeded random pressure walk and check every
/// fired transition against a shadow trace of the per-tick pressure
/// predicates — an escalation requires the relevant hot predicate on each of
/// the last escalate_dwell_ticks ticks, a de-escalation the relevant calm
/// predicate on each of the last recover_dwell_ticks ticks. No transition
/// without a watermark crossing held for the full dwell.
TEST(GovernorTest, NoTransitionWithoutWatermarkCrossingAndDwellProperty) {
  const QosConfig c = TestConfig();
  Governor g(c, 1);
  Rng rng(4242);

  struct TickTrace {
    bool degrade_hot, shed_hot, calm;
  };
  std::deque<TickTrace> trace;
  const auto all_recent = [&](int n, auto pred) {
    if (static_cast<int>(trace.size()) < n) return false;
    for (int i = 0; i < n; ++i) {
      if (!pred(trace[trace.size() - 1 - static_cast<size_t>(i)])) return false;
    }
    return true;
  };

  int transitions_seen = 0;
  double fill = 0.0;  // sticky random walk so hot/calm streaks actually happen
  for (int tick = 0; tick < 20000; ++tick) {
    fill += (static_cast<double>(rng.Uniform(1000)) / 1000.0 - 0.5) * 0.3;
    if (fill < 0.0) fill = 0.0;
    if (fill > 1.0) fill = 1.0;
    const ShardSample s = Fill(fill);
    // Predicates over the fill the machine actually sees (depth/capacity is
    // quantized by the integer queue depth, not the raw walk value).
    const double seen = static_cast<double>(s.queue_depth) /
                        static_cast<double>(s.queue_capacity);
    TickTrace t;
    t.degrade_hot = seen >= c.degrade_watermark;
    t.shed_hot = seen >= c.shed_watermark;
    t.calm = seen <= c.recover_watermark;
    trace.push_back(t);

    const QosState before = g.shard_state(0);
    const auto fired = TickOne(g, s);
    ASSERT_LE(fired.size(), 1u);
    if (fired.empty()) continue;
    ++transitions_seen;
    const Transition& tr = fired[0];
    EXPECT_EQ(tr.from, before);
    EXPECT_EQ(tr.to, g.shard_state(0));
    EXPECT_GE(tr.dwell_ticks, 1);
    if (static_cast<int>(tr.to) > static_cast<int>(tr.from)) {
      // Escalation: Normal/Recovering watch the degrade watermark, Degraded
      // the shed watermark — hot on every tick of the escalation dwell.
      if (tr.from == QosState::kDegraded) {
        EXPECT_TRUE(all_recent(c.escalate_dwell_ticks,
                               [](const TickTrace& x) { return x.shed_hot; }))
            << "Degraded->Shedding without a sustained shed crossing";
      } else {
        EXPECT_TRUE(all_recent(c.escalate_dwell_ticks,
                               [](const TickTrace& x) { return x.degrade_hot; }))
            << "escalation without a sustained degrade crossing";
      }
      EXPECT_GE(tr.dwell_ticks, c.escalate_dwell_ticks);
    } else {
      // De-escalation: Shedding only needs the shed condition gone; the
      // others need full calm — on every tick of the recovery dwell.
      if (tr.from == QosState::kShedding) {
        EXPECT_TRUE(all_recent(c.recover_dwell_ticks,
                               [](const TickTrace& x) { return !x.shed_hot; }))
            << "Shedding de-escalated while still shed-hot";
      } else {
        EXPECT_TRUE(all_recent(c.recover_dwell_ticks, [](const TickTrace& x) {
          return x.calm && !x.degrade_hot;
        })) << "de-escalation without sustained calm";
      }
      EXPECT_GE(tr.dwell_ticks, c.recover_dwell_ticks);
    }
    // Reaching a new state restarts the dwell clock.
    EXPECT_EQ(g.shard_dwell_ticks(0), 0);
  }
  // The walk must actually exercise the machine, or the property is vacuous.
  EXPECT_GT(transitions_seen, 10);
}

TEST(GovernorTest, ShouldShedFractionsAreExactAndMonotone) {
  // Exact per-class fractions over any aligned window of 4 sequences.
  for (uint64_t base = 0; base < 64; base += 4) {
    int shed[3] = {0, 0, 0};
    for (uint64_t s = base; s < base + 4; ++s) {
      for (int p = 0; p < 3; ++p) {
        shed[p] += ShouldShed(static_cast<Priority>(p), s) ? 1 : 0;
      }
    }
    EXPECT_EQ(shed[0], 0);  // high: never
    EXPECT_EQ(shed[1], 2);  // normal: 1 in 2
    EXPECT_EQ(shed[2], 3);  // low: 3 in 4
    // Monotone shed ordering by priority class.
    EXPECT_LE(shed[0], shed[1]);
    EXPECT_LE(shed[1], shed[2]);
  }
  // Per-sequence monotonicity: a more important class never sheds a frame a
  // less important class admits... in aggregate; pointwise, high <= others.
  for (uint64_t s = 0; s < 256; ++s) {
    EXPECT_FALSE(ShouldShed(Priority::kHigh, s));
  }
  // Progress guarantee: every class admits at least one frame in any
  // aligned window of 4.
  for (uint64_t base = 0; base < 256; base += 4) {
    for (int p = 0; p < 3; ++p) {
      bool admitted = false;
      for (uint64_t s = base; s < base + 4; ++s) {
        admitted |= !ShouldShed(static_cast<Priority>(p), s);
      }
      EXPECT_TRUE(admitted) << "class " << p << " starved at base " << base;
    }
  }
}

TEST(GovernorTest, PriorityNamesParseAndRoundTrip) {
  Priority p;
  ASSERT_TRUE(qos::ParsePriority("high", &p));
  EXPECT_EQ(p, Priority::kHigh);
  ASSERT_TRUE(qos::ParsePriority("normal", &p));
  EXPECT_EQ(p, Priority::kNormal);
  ASSERT_TRUE(qos::ParsePriority("low", &p));
  EXPECT_EQ(p, Priority::kLow);
  EXPECT_FALSE(qos::ParsePriority("urgent", &p));
  EXPECT_FALSE(qos::ParsePriority("", &p));
  EXPECT_STREQ(qos::PriorityName(Priority::kLow), "low");
  EXPECT_STREQ(qos::QosStateName(QosState::kShedding), "shedding");
}

TEST(GovernorTest, ValidateRejectsEachOutOfRangeField) {
  EXPECT_TRUE(TestConfig().Validate().ok());
  {
    QosConfig c = TestConfig();
    c.tick_ms = -1;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.degrade_watermark = 0.0;  // must be > 0
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.shed_watermark = 1.5;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.recover_watermark = 0.6;  // >= degrade_watermark: no hysteresis gap
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.degrade_watermark = 0.9;  // > shed_watermark
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.degrade_lag_us = -1;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.escalate_dwell_ticks = 0;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.recover_dwell_ticks = 0;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    QosConfig c = TestConfig();
    c.degrade.probe_every_n = 0;
    EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GovernorTest, CkptRoundTripResumesTheExactTrajectory) {
  const QosConfig c = TestConfig();
  Governor a(c, 2);
  // Drive shard 0 into Degraded and shard 1 partway through an escalation
  // streak, so the export carries a non-trivial mid-flight state.
  for (int i = 0; i < c.escalate_dwell_ticks; ++i) {
    a.Tick({Fill(0.9), Fill(0.0)}, nullptr);
  }
  a.Tick({Fill(0.6), Fill(0.9)}, nullptr);  // shard 1: streak 1 of 3
  ASSERT_EQ(a.shard_state(0), QosState::kDegraded);
  ASSERT_EQ(a.shard_state(1), QosState::kNormal);

  const std::vector<GovernorShardCkpt> ckpt = a.ExportCkpt();
  ASSERT_EQ(ckpt.size(), 2u);
  EXPECT_EQ(ckpt[0].state, static_cast<int32_t>(QosState::kDegraded));

  Governor b(c, 2);
  b.RestoreCkpt(ckpt);
  EXPECT_EQ(b.shard_state(0), a.shard_state(0));
  EXPECT_EQ(b.shard_state(1), a.shard_state(1));
  EXPECT_EQ(b.shard_dwell_ticks(0), a.shard_dwell_ticks(0));

  // Identical subsequent samples produce identical transitions — the
  // restored machine continues the trajectory, streaks included (shard 1
  // needs only the remaining 2 hot ticks, not a fresh 3).
  for (int i = 0; i < c.escalate_dwell_ticks - 1; ++i) {
    std::vector<Transition> ta, tb;
    a.Tick({Fill(0.6), Fill(0.9)}, &ta);
    b.Tick({Fill(0.6), Fill(0.9)}, &tb);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k].shard, tb[k].shard);
      EXPECT_EQ(ta[k].from, tb[k].from);
      EXPECT_EQ(ta[k].to, tb[k].to);
      EXPECT_EQ(ta[k].dwell_ticks, tb[k].dwell_ticks);
    }
  }
  EXPECT_EQ(a.shard_state(1), QosState::kDegraded);
  EXPECT_EQ(b.shard_state(1), QosState::kDegraded);
}

TEST(GovernorTest, CkptRestoreClampsGarbageConservatively) {
  Governor g(TestConfig(), 3);
  std::vector<GovernorShardCkpt> ckpt(2);
  ckpt[0].state = 7;  // out of range: clamp to Normal
  ckpt[0].dwell_ticks = -5;
  ckpt[0].escalate_streak = -1;
  ckpt[1].state = static_cast<int32_t>(QosState::kShedding);
  ckpt[1].dwell_ticks = 9;
  // Shard 2 has no entry at all: restores to Normal.
  g.RestoreCkpt(ckpt);
  EXPECT_EQ(g.shard_state(0), QosState::kNormal);
  EXPECT_EQ(g.shard_dwell_ticks(0), 0);
  EXPECT_EQ(g.shard_state(1), QosState::kShedding);
  EXPECT_EQ(g.shard_dwell_ticks(1), 9);
  EXPECT_EQ(g.shard_state(2), QosState::kNormal);

  // Extra trailing entries beyond num_shards are ignored.
  Governor one(TestConfig(), 1);
  std::vector<GovernorShardCkpt> wide(4);
  wide[3].state = static_cast<int32_t>(QosState::kShedding);
  one.RestoreCkpt(wide);
  EXPECT_EQ(one.shard_state(0), QosState::kNormal);
}

TEST(GovernorTest, DegradeKnobIdentity) {
  DegradeKnobs k;
  EXPECT_TRUE(k.IsIdentity());
  k.probe_every_n = 2;
  EXPECT_FALSE(k.IsIdentity());
}

}  // namespace
}  // namespace vcd
