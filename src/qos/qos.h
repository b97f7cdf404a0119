#pragma once

#include <cstdint>

#include "util/status.h"

/// \file qos.h
/// Types of the adaptive overload governor (DESIGN.md §17): the per-shard
/// QoS state machine's states, per-stream priority classes, the degraded-mode
/// detector knobs, and the governor configuration with its pressure
/// watermarks and dwell-time hysteresis.
///
/// The governor exists so the system bends under sustained overload instead
/// of stalling producers or dropping frames blindly: in Degraded it trades
/// detection quality for throughput via explicit deterministic knobs; in
/// Shedding it drops frames by priority class, never starving high-priority
/// streams. All knobs default to identity — a governor that never leaves
/// Normal is byte-identical to no governor at all (pinned by test).

namespace vcd::qos {

/// Per-shard (and global) overload state. Numeric order is severity order:
/// the global state is the max across shards, and tests assert that degrade
/// knobs are active iff severity >= kDegraded.
///
///   Normal --sustained pressure--> Degraded --more pressure--> Shedding
///   Shedding --pressure eases--> Degraded --sustained calm--> Recovering
///   Recovering --sustained calm--> Normal   (relapse: --> Degraded)
enum class QosState : int {
  kNormal = 0,      ///< full-quality detection, nothing shed
  kRecovering = 1,  ///< pressure gone, dwelling before declaring Normal
  kDegraded = 2,    ///< degrade knobs active, nothing shed
  kShedding = 3,    ///< degrade knobs active + priority-aware frame sheds
};

/// Human-readable state name ("normal"/"recovering"/"degraded"/"shedding").
const char* QosStateName(QosState s);

/// Per-stream priority class, set at stream registration. Order matters:
/// lower numeric value = more important = shed less (monotone shed ordering
/// by priority is property-tested).
enum class Priority : int {
  kHigh = 0,    ///< never shed
  kNormal = 1,  ///< sheds 1 of every 2 frames while Shedding
  kLow = 2,     ///< sheds 3 of every 4 frames while Shedding
};

/// Human-readable priority name ("high"/"normal"/"low").
const char* PriorityName(Priority p);

/// Parses "high"/"normal"/"low" into \p out; false on anything else.
bool ParsePriority(const char* name, Priority* out);

/// Deterministic weighted-round-robin shed decision: whether the frame with
/// 0-based per-stream submission sequence \p seq is shed for a stream of
/// class \p p while its shard is in Shedding. The modular patterns make the
/// shed fraction monotone in priority (high 0 <= normal 1/2 <= low 3/4) and
/// guarantee every class still makes progress — even kLow admits every 4th
/// frame, so no stream is fully starved.
inline bool ShouldShed(Priority p, uint64_t seq) {
  switch (p) {
    case Priority::kHigh:
      return false;
    case Priority::kNormal:
      return (seq % 2) == 1;
    case Priority::kLow:
      return (seq % 4) != 0;
  }
  return false;
}

/// Detection-quality knobs the executor pushes into every CopyDetector when
/// a shard enters Degraded (and withdraws on recovery). Defaults are
/// identity: applying a default-constructed DegradeKnobs changes nothing.
/// Every knob is deterministic — degraded output is a pure function of the
/// input frame sequence and the knob values, never of wall-clock timing.
struct DegradeKnobs {
  /// Combine/test only every Nth basic window; the in-between windows still
  /// extend candidate state timestamps but skip the similarity sweep and
  /// are counted in DetectorStats::qos_skipped_windows. 1 = every window.
  int probe_every_n = 1;

  /// True when every knob is at its identity value.
  bool IsIdentity() const { return probe_every_n == 1; }

  friend bool operator==(const DegradeKnobs& a, const DegradeKnobs& b) {
    return a.probe_every_n == b.probe_every_n;
  }
  friend bool operator!=(const DegradeKnobs& a, const DegradeKnobs& b) {
    return !(a == b);
  }
};

/// Governor configuration: pressure watermarks (fractions of shard queue
/// capacity), an optional lag threshold, and dwell-time hysteresis.
///
/// A shard's fill pressure is queue_depth / queue_capacity. Escalation
/// requires the pressure to hold above a watermark for escalate_dwell_ticks
/// consecutive ticks; de-escalation requires it to hold below for
/// recover_dwell_ticks — so a single spike or dip never flaps the state.
struct QosConfig {
  /// Master switch. Off = no governor thread, no sensing, no knobs.
  bool enabled = false;
  /// Governor tick period in milliseconds; > 0 starts a governor thread in
  /// the executor. 0 = no thread: ticks only happen via
  /// StreamExecutor::TickQos(), the deterministic mode tests drive.
  int tick_ms = 0;

  /// Fill fraction at/above which a Normal/Recovering shard escalates to
  /// Degraded (after dwell).
  double degrade_watermark = 0.5;
  /// Fill fraction at/above which a Degraded shard escalates to Shedding.
  double shed_watermark = 0.85;
  /// Fill fraction at/below which pressure counts as gone (recovery path).
  double recover_watermark = 0.25;

  /// Stream lag (newest submitted − newest processed frame timestamp, µs)
  /// at/above which a shard counts as Degraded-hot even with a shallow
  /// queue. 0 disables the lag signal.
  int64_t degrade_lag_us = 0;

  /// Consecutive hot ticks before an escalation fires.
  int escalate_dwell_ticks = 2;
  /// Consecutive calm ticks before a de-escalation fires.
  int recover_dwell_ticks = 4;

  /// Knobs applied while a shard is Degraded or Shedding.
  DegradeKnobs degrade;

  /// Validates ranges (watermark ordering, positive dwells, knob ranges).
  Status Validate() const;
};

/// Per-shard governor state carried through checkpoint/restore, so a
/// restored executor resumes mid-Degraded instead of re-learning the
/// overload from scratch (ckpt section QOS).
struct GovernorShardCkpt {
  int32_t state = 0;            ///< QosState numeric value
  int64_t dwell_ticks = 0;      ///< ticks spent in the current state
  int32_t escalate_streak = 0;  ///< consecutive hot ticks so far
  int32_t recover_streak = 0;   ///< consecutive calm ticks so far
};

}  // namespace vcd::qos
