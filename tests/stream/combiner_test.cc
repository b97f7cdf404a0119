#include "stream/combiner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace vcd::stream {
namespace {

/// Test payload: tracks which window indices it covers.
struct Cand {
  int num_windows = 0;
  int first = 0, last = 0;  // covered window index range
};

Cand Fresh(int i) { return Cand{1, i, i}; }

void Merge(Cand& older, const Cand& newer) {
  EXPECT_EQ(older.last + 1, newer.first) << "merge must join adjacent spans";
  older.num_windows += newer.num_windows;
  older.last = newer.last;
}

/// Absorbs window \p i into \p container (payloads own no resources, so
/// retire has nothing to release).
template <typename Container>
void StepWindow(Container* container, int i, int max_windows) {
  container->Step(
      max_windows, [&](Cand& c) { c = Fresh(i); }, Merge, [](Cand&) {});
}

/// Live candidates of \p geo, counted through ForEach.
size_t LiveCount(GeometricCandidates<Cand>* geo) {
  size_t n = 0;
  geo->ForEach([&](Cand&) { ++n; });
  return n;
}

/// The cumulative suffix candidates VisitSuffixesInto visits, in order.
std::vector<Cand> Suffixes(const GeometricCandidates<Cand>& geo, int max_windows) {
  std::vector<Cand> visited;
  Cand cum, tmp;
  geo.VisitSuffixesInto(
      max_windows, &cum, &tmp, [](Cand& dst, const Cand& src) { dst = src; },
      Merge, [&](const Cand& c) { visited.push_back(c); }, [](Cand&) {});
  return visited;
}

TEST(SequentialCandidatesTest, AllSuffixLengthsPresent) {
  SequentialCandidates<Cand> seq;
  const int max_windows = 5;
  for (int i = 0; i < 10; ++i) {
    StepWindow(&seq, i, max_windows);
    // After window i, candidates are the suffixes ending at i with lengths
    // 1..min(i+1, max).
    const int expect = std::min(i + 1, max_windows);
    ASSERT_EQ(static_cast<int>(seq.size()), expect) << "window " << i;
    for (size_t j = 0; j < seq.size(); ++j) {
      const Cand& c = seq.at(j);
      EXPECT_EQ(c.last, i);
      EXPECT_EQ(c.num_windows, expect - static_cast<int>(j));
      EXPECT_EQ(c.first, i - c.num_windows + 1);
    }
  }
}

TEST(SequentialCandidatesTest, ExpiryDropsOldest) {
  SequentialCandidates<Cand> seq;
  for (int i = 0; i < 4; ++i) StepWindow(&seq, i, 3);
  seq.ForEach([](const Cand& c) { EXPECT_LE(c.num_windows, 3); });
}

TEST(SequentialCandidatesTest, RemoveIf) {
  SequentialCandidates<Cand> seq;
  for (int i = 0; i < 5; ++i) StepWindow(&seq, i, 10);
  seq.RemoveIf([](const Cand& c) { return c.num_windows % 2 == 0; },
               [](Cand&) {});
  EXPECT_EQ(seq.size(), 3u);  // lengths 1, 3 and 5 survive
  seq.ForEach([](const Cand& c) { EXPECT_EQ(c.num_windows % 2, 1); });
}

TEST(SequentialCandidatesTest, Clear) {
  SequentialCandidates<Cand> seq;
  StepWindow(&seq, 0, 5);
  int retired = 0;
  seq.Clear([&](Cand&) { ++retired; });
  EXPECT_EQ(retired, 1);
  EXPECT_TRUE(seq.empty());
}

// --- in-place recycling protocol -------------------------------------------

/// Payload with an external "resource" flag so tests can assert retire is
/// called exactly once per dropped candidate before shell reuse.
struct RCand {
  int num_windows = 0;
  int first = 0, last = 0;
  bool owns = false;  ///< simulated external resource (e.g. pool handle)
};

TEST(SequentialCandidatesTest, StepRecyclesShellsAndRetiresExpired) {
  SequentialCandidates<RCand> seq;
  const int max_windows = 6;
  int retired = 0;
  for (int i = 0; i < 20; ++i) {
    seq.Step(
        max_windows,
        [&](RCand& c) {
          c.num_windows = 1;
          c.first = c.last = i;
          c.owns = true;
        },
        [](RCand& older, const RCand& newer) {
          EXPECT_EQ(older.last + 1, newer.first);
          older.num_windows += newer.num_windows;
          older.last = newer.last;
        },
        [&](RCand& c) {
          EXPECT_TRUE(c.owns) << "retire must see a live candidate";
          c.owns = false;
          ++retired;
        });
    // Recycled shells hold exactly the suffixes ending at window i.
    const int expect = std::min(i + 1, max_windows);
    ASSERT_EQ(static_cast<int>(seq.size()), expect) << "window " << i;
    for (size_t j = 0; j < seq.size(); ++j) {
      const RCand& c = seq.at(j);
      EXPECT_EQ(c.num_windows, expect - static_cast<int>(j));
      EXPECT_EQ(c.first, i - c.num_windows + 1);
      EXPECT_EQ(c.last, i);
      EXPECT_TRUE(c.owns);
    }
  }
  // Windows 0..19 with max 6: windows 0..13 produced an expiry each.
  EXPECT_EQ(retired, 14);
}

TEST(SequentialCandidatesTest, RemoveIfRetiresDropped) {
  SequentialCandidates<RCand> seq;
  for (int i = 0; i < 5; ++i) {
    seq.Step(
        100,
        [&](RCand& c) {
          c = RCand{1, i, i, true};
        },
        [](RCand& older, const RCand& newer) {
          older.num_windows += newer.num_windows;
          older.last = newer.last;
        },
        [](RCand& c) { c.owns = false; });
  }
  int retired = 0;
  seq.RemoveIf([](const RCand& c) { return c.num_windows % 2 == 0; },
               [&](RCand& c) {
                 EXPECT_TRUE(c.owns);
                 c.owns = false;
                 ++retired;
               });
  EXPECT_EQ(retired, 2);  // lengths 2 and 4 dropped
  seq.ForEach([](const RCand& c) {
    EXPECT_TRUE(c.owns);
    EXPECT_EQ(c.num_windows % 2, 1);
  });
  retired = 0;
  seq.Clear([&](RCand& c) {
    c.owns = false;
    ++retired;
  });
  EXPECT_EQ(retired, 3);
  EXPECT_TRUE(seq.empty());
}

TEST(GeometricCandidatesTest, StepRecyclesShellsAndDropsOversizedCarry) {
  GeometricCandidates<RCand> geo;
  const int max_windows = 8;
  for (int i = 0; i < 29; ++i) {
    geo.Step(
        max_windows,
        [&](RCand& c) {
          c.num_windows = 1;
          c.first = c.last = i;
          c.owns = true;
        },
        [](RCand& older, const RCand& newer) {
          EXPECT_EQ(older.last + 1, newer.first);
          older.num_windows += newer.num_windows;
          older.last = newer.last;
        },
        [](RCand& c) {
          EXPECT_TRUE(c.owns);
          c.owns = false;
        });
    // A carry of 16 windows exceeds max_windows and is dropped, so the
    // ladder counts the windows since the last drop in binary, newest
    // (smallest) block first, tiling back from window i.
    const int count = (i + 1) % 16;
    int expected_last = i;
    for (size_t l = 0; l < geo.ladder().size(); ++l) {
      const auto& slot = geo.ladder()[l];
      ASSERT_EQ(slot.has_value(), ((count >> l) & 1) != 0)
          << "window " << i << " level " << l;
      if (!slot.has_value()) continue;
      EXPECT_EQ(slot->num_windows, 1 << l);
      EXPECT_EQ(slot->last, expected_last);
      EXPECT_EQ(slot->first, expected_last - slot->num_windows + 1);
      EXPECT_TRUE(slot->owns);
      expected_last = slot->first - 1;
    }
  }
}

TEST(GeometricCandidatesTest, VisitSuffixesIntoRetiresEveryShell) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 13; ++i) StepWindow(&geo, i, 1000);
  std::vector<Cand> inplace;
  Cand cum, tmp;
  int retired = 0;
  geo.VisitSuffixesInto(
      1000, &cum, &tmp,
      [](Cand& dst, const Cand& src) { dst = src; },
      [](Cand& older, const Cand& newer) {
        older.num_windows += newer.num_windows;
        older.last = newer.last;
      },
      [&](const Cand& c) { inplace.push_back(c); }, [&](Cand&) { ++retired; });
  // 13 = 0b1101: blocks of 1, 4 and 8 windows give suffixes of 1, 5 and 13.
  const std::vector<int> lengths = {1, 5, 13};
  ASSERT_EQ(inplace.size(), lengths.size());
  for (size_t i = 0; i < inplace.size(); ++i) {
    EXPECT_EQ(inplace[i].num_windows, lengths[i]);
    EXPECT_EQ(inplace[i].first, 13 - lengths[i]);
    EXPECT_EQ(inplace[i].last, 12);
  }
  // Every intermediate cum plus the final one must have been retired.
  EXPECT_EQ(retired, static_cast<int>(inplace.size()));
}

TEST(GeometricCandidatesTest, BinaryCounterSizes) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 16; ++i) StepWindow(&geo, i, 1000);
  // 16 windows = 0b10000: one block of 16 at level 4.
  int live = 0;
  for (size_t level = 0; level < geo.ladder().size(); ++level) {
    if (geo.ladder()[level].has_value()) {
      ++live;
      EXPECT_EQ(geo.ladder()[level]->num_windows, 1 << level);
    }
  }
  EXPECT_EQ(live, 1);
  EXPECT_EQ(LiveCount(&geo), 1u);
}

TEST(GeometricCandidatesTest, CounterValueMatchesWindowCount) {
  GeometricCandidates<Cand> geo;
  const int n = 13;  // 0b1101
  for (int i = 0; i < n; ++i) StepWindow(&geo, i, 1000);
  int total = 0;
  for (const auto& slot : geo.ladder()) {
    if (slot.has_value()) total += slot->num_windows;
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(LiveCount(&geo), 3u);  // bits set in 13
}

TEST(GeometricCandidatesTest, BlocksAreContiguousNewestFirst) {
  GeometricCandidates<Cand> geo;
  const int n = 13;
  for (int i = 0; i < n; ++i) StepWindow(&geo, i, 1000);
  // Level order is newest (smallest) to oldest (largest); spans must tile
  // [0, n) in reverse.
  int expected_last = n - 1;
  for (const auto& slot : geo.ladder()) {
    if (!slot.has_value()) continue;
    EXPECT_EQ(slot->last, expected_last);
    expected_last = slot->first - 1;
  }
  EXPECT_EQ(expected_last, -1);
}

TEST(GeometricCandidatesTest, VisitSuffixesYieldsSuffixSpans) {
  GeometricCandidates<Cand> geo;
  const int n = 13;
  for (int i = 0; i < n; ++i) StepWindow(&geo, i, 1000);
  const std::vector<Cand> visited = Suffixes(geo, 1000);
  ASSERT_FALSE(visited.empty());
  // Every visited candidate ends at the latest window and lengths grow.
  int prev = 0;
  for (const Cand& c : visited) {
    EXPECT_EQ(c.last, n - 1);
    EXPECT_EQ(c.first, n - c.num_windows);
    EXPECT_GT(c.num_windows, prev);
    prev = c.num_windows;
  }
  // The largest suffix covers everything.
  EXPECT_EQ(visited.back().num_windows, n);
}

TEST(GeometricCandidatesTest, VisitSuffixesHonorsMaxWindows) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 16; ++i) StepWindow(&geo, i, 1000);
  StepWindow(&geo, 16, 1000);  // blocks: 16 @L4, 1 @L0
  const std::vector<Cand> visited = Suffixes(geo, 8);
  // Only the length-1 suffix fits under max_windows = 8.
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited[0].num_windows, 1);
}

TEST(GeometricCandidatesTest, ExpiryDropsOversizedCarry) {
  GeometricCandidates<Cand> geo;
  // max_windows = 4: merging to a block of 8 must drop it.
  for (int i = 0; i < 8; ++i) StepWindow(&geo, i, 4);
  for (const auto& slot : geo.ladder()) {
    if (slot.has_value()) {
      EXPECT_LE(slot->num_windows, 4);
    }
  }
}

TEST(GeometricCandidatesTest, LogarithmicLiveCount) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 1000; ++i) StepWindow(&geo, i, 1 << 20);
  // popcount(1000) = 6 live blocks; never more than log2(1000)+1.
  EXPECT_LE(LiveCount(&geo), 10u);
  EXPECT_EQ(LiveCount(&geo), 6u);
}

TEST(GeometricCandidatesTest, ClearRetiresEveryLiveCandidate) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 7; ++i) StepWindow(&geo, i, 100);
  int retired = 0;
  geo.Clear([&](Cand&) { ++retired; });
  EXPECT_EQ(retired, 3);  // popcount(7)
  EXPECT_EQ(LiveCount(&geo), 0u);
}

TEST(GeometricCandidatesTest, ForEachVisitsAllLive) {
  GeometricCandidates<Cand> geo;
  for (int i = 0; i < 7; ++i) StepWindow(&geo, i, 100);
  int count = 0;
  geo.ForEach([&](Cand&) { ++count; });
  EXPECT_EQ(count, 3);  // popcount(7)
}

}  // namespace
}  // namespace vcd::stream
