#pragma once

/// \file lock_rank.h
/// The process-wide lock hierarchy (DESIGN.md §14).
///
/// Every `vcd::Mutex` in library code names one of these ranks at
/// construction (enforced by tools/lint.sh rule `vcd-lock-rank`). The rule
/// is strict descent: a thread may acquire a mutex only while every mutex it
/// already holds has a *strictly higher* rank. Equal ranks never nest —
/// peers of the same rank (per-shard queues, per-executor registries) are
/// only ever taken sequentially, and banning equal-rank nesting is what
/// makes the ordering a total order instead of a per-pair convention.
///
/// Outermost (acquired first) to innermost (acquired last):
///
///   kExecutorControl > kShard > kQueue > kQos > kMetricsRegistry > kLeaf
///
/// Two enforcement layers consume these ranks:
///   - Static: `VCD_ACQUIRED_BEFORE`/`VCD_ACQUIRED_AFTER` annotations on the
///     declarations, checked by Clang's `-Wthread-safety-beta` (a build
///     break under `VCD_WERROR`/`VCD_LINT`); the negative-compile ctest
///     `lint.lock_order_negative_compile` pins that the analysis fires.
///   - Runtime: under `VCD_DEADLOCK_CHECK` (CMake; ON in Debug and
///     sanitizer builds) `Mutex::Lock`/`TryLock` maintain a per-thread
///     held-lock stack and `VCD_CHECK`-fail on any rank inversion or
///     self-recursive acquisition — the GCC/production backstop for
///     orderings the Clang analysis cannot see across objects.

namespace vcd {

/// Named rank of a mutex in the global lock order. Higher numeric value =
/// acquired earlier (outer); a lock may only be acquired while all held
/// locks have strictly greater rank.
enum class LockRank : int {
  /// Innermost leaves: internally-synchronized utilities that never call
  /// out while holding their lock (faultfx::Injector).
  kLeaf = 10,
  /// obs::MetricsRegistry registration/collection. Below every pipeline
  /// lock, so registering or collecting under one stays legal. Today no
  /// pipeline lock is held when it is taken: a shard worker builds each
  /// stream's detector, which registers its instruments, inside a queued
  /// command.
  kMetricsRegistry = 20,
  /// Per-shard QoS shed gate (stream priority map + weighted-round-robin
  /// shed counters). Taken briefly on the frame submission path while the
  /// governor has the shard in Shedding, by the control plane when a
  /// stream registers its priority, and by the shard worker when a
  /// checkpoint exports it; never held across a queue push.
  kQos = 35,
  /// parallel::BoundedMpscQueue submission-queue mutexes. Taken while the
  /// executor control mutex (command fan-out) or the watchdog mutex
  /// (stall snapshots) is held, never the other way around.
  kQueue = 50,
  /// Shard-level control state: the executor's watchdog stop/wakeup mutex,
  /// which is held across per-shard queue-depth snapshots.
  kShard = 60,
  /// The executor control plane (subscribed ids, merged log, orphans). The
  /// outermost lock in the process: control-plane calls fan commands out
  /// into every shard queue while holding it.
  kExecutorControl = 70,
};

/// Human-readable rank name ("kQueue", ...) for checker failure reports.
inline const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kLeaf:
      return "kLeaf";
    case LockRank::kMetricsRegistry:
      return "kMetricsRegistry";
    case LockRank::kQos:
      return "kQos";
    case LockRank::kQueue:
      return "kQueue";
    case LockRank::kShard:
      return "kShard";
    case LockRank::kExecutorControl:
      return "kExecutorControl";
  }
  return "<invalid rank>";
}

}  // namespace vcd
