#include "stream/combiner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
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

/// Sequential order's rule: every length stays.
bool KeepAll(int) { return true; }

/// Absorbs window \p i into \p seq in Sequential order (payloads own no
/// resources, so retire has nothing to release).
void StepWindow(SequentialCandidates<Cand>* seq, int i, int max_windows) {
  seq->Step(
      max_windows, KeepAll, [&](Cand& c) { c = Fresh(i); }, Merge, [](Cand&) {});
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
        max_windows, KeepAll,
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
        100, KeepAll,
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

// --- Geometric order: the list trimmed to counter block boundaries --------
//
// The tests below compare the list, stepped with IsCounterBoundary as its
// keep rule, against a reference binary counter: a ladder of power-of-two
// blocks with the carry-and-drop rule the detector used to run.

/// Reference Geometric order: level l holds a block of 2^l windows or
/// nothing; a new window carries up the ladder, and a carry longer than the
/// bound is dropped where it would land.
class ReferenceCounter {
 public:
  void Step(int max_windows) {
    int carry = 1;
    for (size_t level = 0;; ++level) {
      if (level == blocks_.size()) blocks_.push_back(0);
      if (blocks_[level] == 0) {
        if (carry <= max_windows) blocks_[level] = carry;
        return;
      }
      carry += blocks_[level];
      blocks_[level] = 0;
    }
  }

  /// The suffix lengths the reference tests, newest (shortest) first: the
  /// newest block, extended by each older block in turn while the sum stays
  /// within \p max_windows.
  std::vector<int> SuffixSums(int max_windows) const {
    std::vector<int> sums;
    int cum = 0;
    for (int block : blocks_) {
      if (block == 0) continue;
      if (cum + block > max_windows) break;
      cum += block;
      sums.push_back(cum);
    }
    return sums;
  }

 private:
  std::vector<int> blocks_;  ///< per level: block length, 0 when empty
};

/// A Geometric-order list of RCand payloads that counts its retirements.
struct GeoList {
  SequentialCandidates<RCand> list;
  int64_t windows = 0;  ///< windows absorbed: the counter's value
  int inits = 0;
  int retired = 0;

  /// Absorbs the next window under bound \p max_windows.
  void Step(int max_windows) {
    const int i = static_cast<int>(windows++);
    const int64_t n = windows;
    list.Step(
        max_windows, [&](int length) { return IsCounterBoundary(n, length); },
        [&](RCand& c) {
          EXPECT_FALSE(c.owns) << "a recycled shell must arrive retired";
          c = RCand{1, i, i, true};
          ++inits;
        },
        [](RCand& older, const RCand& fresh) {
          EXPECT_EQ(older.last + 1, fresh.first) << "merge must join adjacent spans";
          older.num_windows += fresh.num_windows;
          older.last = fresh.last;
        },
        [&](RCand& c) {
          EXPECT_TRUE(c.owns) << "a shell must be retired exactly once";
          c.owns = false;
          ++retired;
        });
  }

  /// Live lengths, newest (shortest) first, each checked to be a suffix of
  /// the windows so far that owns its resource.
  std::vector<int> Lengths() {
    std::vector<int> lengths;
    list.ForEachNewestFirst([&](const RCand& c) {
      EXPECT_TRUE(c.owns);
      EXPECT_EQ(c.last, windows - 1);
      EXPECT_EQ(c.first, c.last - c.num_windows + 1);
      lengths.push_back(c.num_windows);
    });
    return lengths;
  }
};

int FloorLog2(int v) { return std::bit_width(static_cast<unsigned>(v)) - 1; }

TEST(GeometricCandidatesTest, StepRecyclesShellsAndDropsOversizedCarry) {
  GeoList geo;
  ReferenceCounter ref;
  const int max_windows = 8;
  for (int i = 0; i < 29; ++i) {
    geo.Step(max_windows);
    ref.Step(max_windows);
    // A 16-window carry exceeds the bound; a 16-window candidate expires
    // alike, so the live suffixes are the reference's, tiling back from
    // window i.
    ASSERT_EQ(geo.Lengths(), ref.SuffixSums(max_windows)) << "window " << i;
  }
  // Every shell that left the list was retired once; the rest are live.
  EXPECT_EQ(geo.inits - geo.retired, static_cast<int>(geo.list.size()));
}

TEST(GeometricCandidatesTest, VisitSuffixesIntoRetiresEveryShell) {
  for (int max_windows : {1, 3, 8, 24}) {
    SCOPED_TRACE(max_windows);
    GeoList geo;
    for (int n = 1; n <= 300; ++n) {
      geo.Step(max_windows);
      ASSERT_EQ(geo.inits - geo.retired, static_cast<int>(geo.list.size()))
          << "after " << n << " windows";
    }
    geo.list.Clear([&](RCand& c) {
      EXPECT_TRUE(c.owns);
      c.owns = false;
      ++geo.retired;
    });
    EXPECT_EQ(geo.retired, geo.inits);
    EXPECT_EQ(geo.inits, 300);  // one fresh shell per window
  }
}

TEST(GeometricCandidatesTest, BinaryCounterSizes) {
  GeoList geo;
  for (int i = 0; i < 16; ++i) geo.Step(1000);
  // 16 windows = 0b10000: one block, one suffix of 16.
  EXPECT_EQ(geo.Lengths(), std::vector<int>{16});
  // The rule itself: the low bit_width(length) bits of n equal length.
  EXPECT_TRUE(IsCounterBoundary(13, 1));
  EXPECT_TRUE(IsCounterBoundary(13, 5));
  EXPECT_TRUE(IsCounterBoundary(13, 13));
  EXPECT_FALSE(IsCounterBoundary(13, 4));
  EXPECT_FALSE(IsCounterBoundary(13, 9));
  EXPECT_FALSE(IsCounterBoundary(12, 1));
  EXPECT_FALSE(IsCounterBoundary(13, 0));
}

TEST(GeometricCandidatesTest, CounterValueMatchesWindowCount) {
  GeoList geo;
  const int n = 13;  // 0b1101
  for (int i = 0; i < n; ++i) geo.Step(1000);
  const std::vector<int> lengths = geo.Lengths();
  ASSERT_EQ(lengths.size(), 3u);  // bits set in 13
  EXPECT_EQ(lengths.back(), n);   // the longest suffix spans every window
}

TEST(GeometricCandidatesTest, BlocksAreContiguousNewestFirst) {
  GeoList geo;
  for (int i = 0; i < 13; ++i) geo.Step(1000);
  // Newest first, each suffix extends the previous one by the next-older
  // block of 13 = 0b1101: 1, then 4, then 8 windows. Lengths() checks that
  // every span ends at the newest window.
  const std::vector<int> lengths = geo.Lengths();
  ASSERT_EQ(lengths, (std::vector<int>{1, 5, 13}));
  int prev = 0;
  for (int length : lengths) {
    const int block = length - prev;
    EXPECT_EQ(block & (block - 1), 0) << "block " << block << " is no power of two";
    EXPECT_GT(block, prev) << "blocks grow from the newest back";
    prev = length;
  }
}

TEST(GeometricCandidatesTest, VisitSuffixesYieldsSuffixSpans) {
  for (int max_windows : {1, 3, 8, 24}) {
    SCOPED_TRACE(max_windows);
    GeoList geo;
    ReferenceCounter ref;
    for (int n = 1; n <= 300; ++n) {
      geo.Step(max_windows);
      ref.Step(max_windows);
      ASSERT_EQ(geo.Lengths(), ref.SuffixSums(max_windows))
          << "after " << n << " windows";
    }
  }
}

TEST(GeometricCandidatesTest, VisitSuffixesHonorsMaxWindows) {
  GeoList geo;
  for (int i = 0; i < 17; ++i) geo.Step(8);
  // 17 = 0b10001: the 17-window suffix is over the bound, so only the
  // newest one-window suffix is live.
  EXPECT_EQ(geo.Lengths(), std::vector<int>{1});
}

TEST(GeometricCandidatesTest, ExpiryDropsOversizedCarry) {
  GeoList geo;
  for (int i = 0; i < 8; ++i) {
    geo.Step(4);
    for (int length : geo.Lengths()) EXPECT_LE(length, 4);
  }
  // 8 = 0b1000: its one suffix, 8 windows, is over the bound.
  EXPECT_TRUE(geo.list.empty());
}

TEST(GeometricCandidatesTest, LogarithmicLiveCount) {
  GeoList geo;
  for (int i = 0; i < 1000; ++i) geo.Step(1 << 20);
  // popcount(1000) = 6 live suffixes; never more than log2(1000)+1.
  EXPECT_EQ(geo.list.size(), 6u);
  for (int max_windows : {1, 3, 8, 24}) {
    SCOPED_TRACE(max_windows);
    GeoList bounded;
    for (int n = 1; n <= 300; ++n) {
      bounded.Step(max_windows);
      ASSERT_LE(static_cast<int>(bounded.list.size()), FloorLog2(max_windows) + 1)
          << "after " << n << " windows";
    }
  }
}

TEST(GeometricCandidatesTest, ClearRetiresEveryLiveCandidate) {
  GeoList geo;
  for (int i = 0; i < 7; ++i) geo.Step(100);
  int retired = 0;
  geo.list.Clear([&](RCand& c) {
    EXPECT_TRUE(c.owns);
    ++retired;
  });
  EXPECT_EQ(retired, 3);  // popcount(7)
  EXPECT_TRUE(geo.list.empty());
}

TEST(GeometricCandidatesTest, ForEachVisitsAllLive) {
  GeoList geo;
  for (int i = 0; i < 7; ++i) geo.Step(100);
  std::vector<int> oldest_first;
  geo.list.ForEach([&](const RCand& c) { oldest_first.push_back(c.num_windows); });
  EXPECT_EQ(oldest_first, (std::vector<int>{7, 3, 1}));  // popcount(7) = 3
  std::reverse(oldest_first.begin(), oldest_first.end());
  EXPECT_EQ(geo.Lengths(), oldest_first);
}

TEST(GeometricCandidatesTest, BoundChangesKeepSuffixesContiguous) {
  // The reference ladder is not stateless: lowered to 3 for windows 9..12,
  // its bound drops the 4-window carry of those windows and keeps the
  // 8-window block of windows 1..8, which, raised again, it extends across
  // the dropped windows (at window 16 its "12-window suffix" is windows
  // 1..8 and 13..16). The list keeps contiguous suffixes on counter
  // boundaries only (Lengths() checks the spans).
  GeoList geo;
  ReferenceCounter ref;
  const auto step = [&](int max_windows) {
    geo.Step(max_windows);
    ref.Step(max_windows);
    for (int length : geo.Lengths()) {
      EXPECT_TRUE(IsCounterBoundary(geo.windows, length));
      EXPECT_LE(length, max_windows);
    }
  };
  for (int i = 0; i < 8; ++i) step(1000);
  for (int i = 0; i < 4; ++i) step(3);
  for (int i = 0; i < 4; ++i) step(1000);
  EXPECT_EQ(ref.SuffixSums(1000), (std::vector<int>{4, 12}));
  EXPECT_TRUE(geo.list.empty());  // 16 windows: one suffix of 16, broken at 12
  EXPECT_EQ(geo.inits - geo.retired, 0);
}

}  // namespace
}  // namespace vcd::stream
