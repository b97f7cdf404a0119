#include "util/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/lock_rank.h"

/// Tests of the ranked-mutex runtime deadlock checker (DESIGN.md §14):
/// death on rank inversion / equal-rank nesting / self-recursion /
/// off-thread release, and the held-lock-stack bookkeeping around the
/// CondVar adopt/release dance. Everything checker-specific skips when
/// VCD_DEADLOCK_CHECK compiled the bookkeeping out (release builds).

namespace vcd {
namespace {

using std::chrono::milliseconds;

#define SKIP_WITHOUT_DEADLOCK_CHECK()                                        \
  do {                                                                       \
    if (!deadlock::kEnabled) {                                               \
      GTEST_SKIP() << "VCD_DEADLOCK_CHECK is compiled out in this build";    \
    }                                                                        \
  } while (0)

TEST(MutexRankTest, WellOrderedAcquisitionSucceeds) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  Mutex control{LockRank::kExecutorControl, "t.control"};
  Mutex queue{LockRank::kQueue, "t.queue"};
  Mutex registry{LockRank::kMetricsRegistry, "t.registry"};

  EXPECT_EQ(deadlock::HeldCount(), 0);
  control.Lock();
  queue.Lock();
  registry.Lock();
  EXPECT_EQ(deadlock::HeldCount(), 3);
  EXPECT_TRUE(deadlock::Holds(control));
  EXPECT_TRUE(deadlock::Holds(queue));
  EXPECT_TRUE(deadlock::Holds(registry));
  registry.Unlock();
  queue.Unlock();
  control.Unlock();
  EXPECT_EQ(deadlock::HeldCount(), 0);
  EXPECT_FALSE(deadlock::Holds(control));
}

TEST(MutexRankTest, NonLifoReleaseIsLegal) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  Mutex outer{LockRank::kShard, "t.outer"};
  Mutex inner{LockRank::kLeaf, "t.inner"};
  outer.Lock();
  inner.Lock();
  outer.Unlock();  // released out of LIFO order — allowed
  EXPECT_TRUE(deadlock::Holds(inner));
  EXPECT_FALSE(deadlock::Holds(outer));
  inner.Unlock();
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

TEST(MutexRankTest, SequentialSameRankIsLegal) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  // Peers of one rank (per-shard queues) are taken one after another,
  // never nested — that must stay legal.
  Mutex q1{LockRank::kQueue, "t.q1"};
  Mutex q2{LockRank::kQueue, "t.q2"};
  q1.Lock();
  q1.Unlock();
  q2.Lock();
  q2.Unlock();
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

TEST(MutexRankTest, TryLockRecordsAndReleases) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  Mutex mu{LockRank::kLeaf, "t.try"};
  ASSERT_TRUE(mu.TryLock());
  EXPECT_TRUE(deadlock::Holds(mu));
  mu.Unlock();
  EXPECT_FALSE(deadlock::Holds(mu));
}

TEST(MutexRankTest, FailedTryLockLeavesStackUntouched) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  Mutex mu{LockRank::kLeaf, "t.contended"};
  mu.Lock();
  std::atomic<bool> tried{false};
  std::atomic<bool> got{true};
  std::thread t([&] {
    got = mu.TryLock();  // contended: fails, must not record a hold
    EXPECT_EQ(deadlock::HeldCount(), 0);
    tried = true;
  });
  t.join();
  EXPECT_TRUE(tried);
  EXPECT_FALSE(got);
  mu.Unlock();
}

TEST(MutexRankTest, RanksAreIntrospectable) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  Mutex mu{LockRank::kQueue, "t.named"};
  EXPECT_EQ(mu.rank(), LockRank::kQueue);
  EXPECT_STREQ(mu.name(), "t.named");
  EXPECT_STREQ(LockRankName(LockRank::kExecutorControl), "kExecutorControl");
  EXPECT_STREQ(LockRankName(LockRank::kLeaf), "kLeaf");
}

// --- death tests ----------------------------------------------------------

TEST(MutexRankDeathTest, RankInversionDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex registry{LockRank::kMetricsRegistry, "t.registry"};
  Mutex control{LockRank::kExecutorControl, "t.control"};
  registry.Lock();
  // Acquiring the (outer) control rank while holding the (inner) registry
  // rank is the canonical inversion; the checker must name both locks.
  EXPECT_DEATH(control.Lock(),
               "lock-order inversion.*t\\.control.*kExecutorControl.*"
               "t\\.registry.*kMetricsRegistry");
  registry.Unlock();
}

TEST(MutexRankDeathTest, EqualRankNestingDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex q1{LockRank::kQueue, "t.q1"};
  Mutex q2{LockRank::kQueue, "t.q2"};
  q1.Lock();
  EXPECT_DEATH(q2.Lock(), "lock-order inversion.*t\\.q2.*t\\.q1");
  q1.Unlock();
}

TEST(MutexRankDeathTest, SelfRecursiveLockDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu{LockRank::kLeaf, "t.self"};
  mu.Lock();
  EXPECT_DEATH(mu.Lock(), "self-recursive acquisition.*t\\.self");
  mu.Unlock();
}

TEST(MutexRankDeathTest, SelfRecursiveTryLockDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu{LockRank::kLeaf, "t.selftry"};
  mu.Lock();
  EXPECT_DEATH((void)mu.TryLock(), "self-recursive acquisition.*t\\.selftry");
  mu.Unlock();
}

TEST(MutexRankDeathTest, ReleaseAcrossThreadsDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Parenthesized construction: a brace-init comma would split the macro
  // argument list.
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "t.crossthread");
        mu.Lock();
        // The holder thread never releases; a second thread tries to — the
        // held-lock stack is per-thread, so that is a checker failure (and
        // undefined behavior on the underlying std::mutex).
        std::thread other([&mu] { mu.Unlock(); });
        other.join();
      },
      "t\\.crossthread.*released by a thread that does not hold it");
}

TEST(MutexRankDeathTest, DoubleUnlockDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "t.double");
        mu.Lock();
        mu.Unlock();
        mu.Unlock();
      },
      "t\\.double.*released by a thread that does not hold it");
}

// --- CondVar bookkeeping --------------------------------------------------

TEST(CondVarTest, WaitForKeepsHeldLockStack) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  // WaitFor internally adopts the mutex into a std::unique_lock, waits, and
  // releases the unique_lock without unlocking — the caller owns the mutex
  // throughout, and the held-lock stack must agree on both sides of that
  // dance (timeout path).
  Mutex mu{LockRank::kShard, "t.cv"};
  CondVar cv;
  mu.Lock();
  EXPECT_TRUE(deadlock::Holds(mu));
  EXPECT_EQ(deadlock::HeldCount(), 1);
  EXPECT_FALSE(cv.WaitFor(mu, milliseconds(5)));  // no notifier: times out
  EXPECT_TRUE(deadlock::Holds(mu));
  EXPECT_EQ(deadlock::HeldCount(), 1);
  // The surviving stack entry still participates in ordering: an inner
  // (lower-rank) acquisition is legal after the wait.
  Mutex leaf{LockRank::kLeaf, "t.cv_leaf"};
  leaf.Lock();
  EXPECT_EQ(deadlock::HeldCount(), 2);
  leaf.Unlock();
  mu.Unlock();
  EXPECT_EQ(deadlock::HeldCount(), 0);
}

TEST(CondVarTest, NotifiedWaitKeepsHeldLockStack) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  // Same invariant on the notified (no-timeout) path of Wait, with a real
  // producer thread taking the mutex while the waiter is blocked.
  Mutex mu{LockRank::kShard, "t.cv2"};
  CondVar cv;
  bool ready = false;  // guarded by mu
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  mu.Lock();
  cv.Wait(mu, [&] { return ready; });
  EXPECT_TRUE(deadlock::Holds(mu));
  EXPECT_EQ(deadlock::HeldCount(), 1);
  mu.Unlock();
  producer.join();
}

TEST(CondVarDeathTest, WaitWithoutHoldingDies) {
  SKIP_WITHOUT_DEADLOCK_CHECK();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "t.cv_unheld");
        CondVar cv;
        (void)cv.WaitFor(mu, milliseconds(1));  // never locked: misuse
      },
      "CondVar wait on lock.*t\\.cv_unheld.*does not hold");
}

// --- compiled-out mode ----------------------------------------------------

TEST(MutexTest, RankedConstructorCompilesInEveryMode) {
  // The two-argument constructor must exist whether or not the checker is
  // compiled in, so annotated declarations build identically everywhere.
  Mutex mu{LockRank::kQueue, "t.always"};
  mu.Lock();
  mu.Unlock();
  MutexLock lock(mu);
  if (!deadlock::kEnabled) {
    EXPECT_EQ(deadlock::HeldCount(), 0);
    EXPECT_FALSE(deadlock::Holds(mu));
  }
}

}  // namespace
}  // namespace vcd
