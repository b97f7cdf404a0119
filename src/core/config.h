#pragma once

#include <cstdint>

#include "features/fingerprint.h"
#include "qos/qos.h"
#include "util/status.h"

/// \file config.h
/// Configuration of the continuous copy detector. Defaults follow the
/// paper's Table I (K=800, d=5, u=4, δ=0.7, w=5 s, λ=2).

namespace vcd::obs {
class MetricsRegistry;
}  // namespace vcd::obs

namespace vcd::core {

/// How candidate/query similarity state is represented (paper §V).
enum class Representation {
  kSketch,  ///< raw K-min-hash arrays; comparisons cost O(K) array ops
  kBit,     ///< 2K-bit signatures per (candidate, query); popcount ops
};

/// How candidate sequences are combined (paper §IV-A, Fig. 2).
enum class CombinationOrder {
  kSequential,  ///< all suffix lengths 1..⌈λL/w⌉; accuracy-first
  kGeometric,   ///< geometrically spaced lengths; ⌈log⌉ combinations
};

/// Human-readable names (for bench output).
const char* RepresentationName(Representation r);
const char* CombinationOrderName(CombinationOrder o);

/// What a frame submission does when its shard's queue is at capacity
/// (parallel executor only; see parallel/executor.h).
enum class BackpressurePolicy {
  kBlock,       ///< the producer blocks until the shard catches up
  kDropNewest,  ///< the frame is discarded and counted in ExecutorStats
};

/// Human-readable name ("block"/"drop") for logs and CLI flags.
const char* BackpressurePolicyName(BackpressurePolicy p);

/// What a stream does when its frames arrive degraded (corrupt payloads,
/// decode errors, clock skew) — the per-stream health state machine of the
/// parallel executor (DESIGN.md §12).
enum class CorruptionPolicy {
  kSkip,        ///< keep processing; degraded windows skip sketching
  kQuarantine,  ///< repeated faults quarantine the stream, with exponential
                ///< backoff readmission
  kFail,        ///< the first fault fails the stream hard (sticky error)
};

/// Human-readable name ("skip"/"quarantine"/"fail") for logs and CLI flags.
const char* CorruptionPolicyName(CorruptionPolicy p);

/// Configuration of the parallel sharded stream executor
/// (parallel::StreamExecutor). Streams are sharded across worker threads
/// with stable per-stream affinity; each shard owns a bounded submission
/// queue.
struct ParallelConfig {
  /// Worker threads (= shards). 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Capacity of each shard's bounded submission queue (frames + commands).
  int queue_capacity = 256;
  /// Behaviour of ProcessKeyFrame when the shard queue is full.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Upper bound, in milliseconds, a kBlock submission may wait on a full
  /// shard queue before the frame is dropped with cause="deadline" — the
  /// escape hatch from a wedged consumer. 0 (default) = wait forever.
  /// Ignored under kDropNewest (which never waits).
  int push_deadline_ms = 0;

  /// Adaptive overload governor (DESIGN.md §17). Disabled by default; when
  /// `qos.enabled` the executor senses per-shard pressure and drives the
  /// Normal/Degraded/Shedding/Recovering state machine.
  qos::QosConfig qos;

  /// Per-stream reaction to degraded frames.
  CorruptionPolicy on_corruption = CorruptionPolicy::kSkip;
  /// Consecutive degraded frames before a stream turns kDegraded.
  int degraded_after_faults = 3;
  /// Consecutive degraded frames before a kQuarantine stream is
  /// quarantined (must be >= degraded_after_faults).
  int quarantine_after_faults = 8;
  /// Consecutive clean frames before a degraded stream is kHealthy again
  /// (also resets the quarantine backoff).
  int recover_after_frames = 16;
  /// Frames discarded by the first quarantine; doubles per re-quarantine
  /// up to quarantine_backoff_max_frames. Frame-count (not wall-clock)
  /// backoff keeps readmission deterministic under test.
  int quarantine_backoff_frames = 32;
  /// Upper bound of the exponential quarantine backoff.
  int quarantine_backoff_max_frames = 1024;

  /// Watchdog tick in milliseconds; > 0 starts a watchdog thread that
  /// fails over shards whose queue stops draining (and readmits them when
  /// they drain again). 0 disables the watchdog.
  int watchdog_ms = 0;

  /// Registry the executor and its shards publish metrics into (not owned;
  /// must outlive the executor). Null (default) makes the executor create a
  /// private registry — ExecutorStats reads through the registry, so one
  /// always exists; pass `&obs::MetricsRegistry::Global()` to export
  /// process-wide (vcdctl does).
  obs::MetricsRegistry* metrics = nullptr;

  /// Validates ranges.
  Status Validate() const;
};

/// Full detector configuration.
struct DetectorConfig {
  /// Frame fingerprinting (d, u, partition scheme).
  features::FingerprintOptions fingerprint;

  /// Number of min-hash functions K.
  int K = 800;
  /// Seed for the hash family (kept fixed between queries and stream!).
  uint64_t hash_seed = 0x5eed;

  /// Similarity threshold δ of Definition 1.
  double delta = 0.7;
  /// Basic window length w in seconds.
  double window_seconds = 5.0;
  /// Tempo-scaling bound λ: candidates longer than λL windows expire
  /// (the paper argues λ ≤ 2 after [28]).
  double lambda = 2.0;

  Representation representation = Representation::kBit;
  CombinationOrder order = CombinationOrder::kSequential;
  /// Use the Hash-Query index to find related queries (vs comparing all).
  bool use_index = true;
  /// Apply Lemma-2 pruning (ablation knob; on in the paper).
  bool enable_pruning = true;

  /// After a query matches, suppress repeated reports of the same query for
  /// this many seconds of stream time. Negative = the query's own duration
  /// (default); 0 = report every matching candidate.
  double report_cooldown_seconds = -1.0;

  /// Debug validator: when set, every processed basic window is followed by
  /// a full CopyDetector::ValidateState() sweep (candidate expiry bound,
  /// sorted signature/related lists, bit-signature well-formedness) and any
  /// violation aborts via VCD_CHECK_OK. O(candidates × K) per window — for
  /// tests and debugging only, off by default.
  bool validate_state = false;

  /// Registry the detector publishes per-window counters and stage-latency
  /// histograms into (not owned; must outlive the detector). Null (default)
  /// detaches observability: no registration, no per-window publishing, no
  /// span clock reads.
  obs::MetricsRegistry* metrics = nullptr;

  /// Validates ranges.
  Status Validate() const;
};

}  // namespace vcd::core
