#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/detector.h"
#include "core/query_store.h"
#include "obs/pipeline_metrics.h"
#include "parallel/shard.h"
#include "qos/governor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

/// \file executor.h
/// Sharded stream executor — the paper's "many concurrent video streams"
/// deployment picture (§II/§V-C): one query portfolio, many monitored
/// streams, each with its own `core::CopyDetector`. It is the only
/// multi-stream engine; a single stream is monitored inline with a bare
/// `CopyDetector`.
///
/// Open streams are sharded across N worker threads with stable per-stream
/// affinity (`shard = (stream_id - 1) % N`). Each shard holds the query
/// table and Hash-Query index once, in a `core::Portfolio` that every
/// stream pinned to it shares; the executor itself keeps only the set of
/// subscribed ids. Candidate lists are inherently per-stream, so shards
/// share nothing on the frame path: `ProcessKeyFrame` touches only an
/// atomic id bound check, a global sequence counter and the owning shard's
/// bounded MPSC queue — no portfolio lock, no registry lock.
///
/// Query subscribe/unsubscribe propagates through per-shard command queues:
/// commands ride the same FIFO as frames, so a portfolio change takes
/// effect after every frame submitted before it and before every frame
/// submitted after it — window-boundary-exact, and identical to one
/// detector per stream driven serially for any single-threaded submission
/// schedule. Detectors are built on their shard's worker, by the command
/// that opens or restores the stream.
///
/// Matches are collected mutex-free on the frame path: each shard's worker
/// takes a frame's matches out of the stream's detector into a
/// worker-owned log, tagged with the frame's global submission sequence
/// number; `Drain()`/`CloseStream()` hand logs over via one-shot futures
/// (`Ask`) and merge them back into arrival order by that tag.
///
/// ### Failure handling (DESIGN.md §12)
/// Streams carry a per-stream health state machine on their shard (see
/// shard.h `StreamHealth`), driven by `ParallelConfig::on_corruption`. When
/// `watchdog_ms > 0` a watchdog thread snapshots every shard each tick; a
/// shard whose queue is non-empty but whose progress counters have not moved
/// for two consecutive ticks is **failed over**: producers get
/// `Submit::kFailedOver` (counted in `frames_dropped_failover`), and
/// control-plane round trips against it return `Status::Unavailable`
/// instead of blocking. The watchdog clears the mark as soon as the shard
/// drains again. A `CloseStream`/`Drain` reply abandoned on failover is kept
/// as an orphan future and reaped by a later control-plane call, so the
/// matches it carried are folded in late rather than lost.
///
/// ### Thread safety
/// - `ProcessKeyFrame` — safe from any number of threads concurrently
///   (frames of one stream must come from one thread to have a defined
///   order, as with any FIFO).
/// - Control plane (`AddQuery*`, `ImportQueries`, `RemoveQuery`,
///   `OpenStream`, `CloseStream`, `Drain`, `Stats`, `StreamStats`,
///   `HealthOf`) — safe from any thread; serialized on an internal control
///   mutex that the frame path never takes.
/// - Accessors return snapshots by value.

namespace vcd::parallel {

/// Executor-wide counters plus one entry per shard.
struct ExecutorStats {
  int64_t frames_submitted = 0;  ///< accepted by ProcessKeyFrame
  /// Discarded because the shard queue was full under kDropNewest (or an
  /// injected kQueueOverflow fault simulated that condition).
  int64_t frames_dropped_backpressure = 0;
  /// Discarded because the owning shard was failed over by the watchdog.
  int64_t frames_dropped_failover = 0;
  /// Discarded because a kBlock push exceeded `push_deadline_ms`.
  int64_t frames_dropped_deadline = 0;
  /// Discarded by the QoS governor's priority-aware shed policy (all
  /// priority classes summed; the per-class split is in
  /// `vcd_qos_frames_shed_total{priority=...}`).
  int64_t frames_shed = 0;
  /// Times the watchdog failed a shard over (transitions, not ticks).
  int64_t watchdog_failovers = 0;
  /// Governor state across the fleet: the worst (max-severity) per-shard
  /// state, as a numeric qos::QosState. 0 while the governor is disabled.
  int qos_global_state = 0;
  std::vector<ShardStats> shards;
  /// Aggregated detector stats per shard (index-aligned with `shards`).
  std::vector<core::DetectorStats> shard_detector_stats;
};

/// \brief Worker-pool stream executor: one portfolio, many streams, N threads.
class StreamExecutor {
 public:
  /// Creates an executor; all streams share \p config, threading per
  /// \p parallel. Fails on invalid config. When `parallel.watchdog_ms > 0`
  /// a shard watchdog thread is started (see file comment).
  static Result<std::unique_ptr<StreamExecutor>> Create(
      const core::DetectorConfig& config, const core::ParallelConfig& parallel);

  /// Stops the watchdog, closes all shard queues (pending work still runs)
  /// and joins the workers. Call Drain() first if you need the final
  /// matches.
  ~StreamExecutor();

  StreamExecutor(const StreamExecutor&) = delete;
  StreamExecutor& operator=(const StreamExecutor&) = delete;

  /// Subscribes a query (key-frame DC maps) on every stream, present and
  /// future.
  Status AddQuery(int id, const std::vector<vcd::video::DcFrame>& key_frames,
                  double duration_seconds = -1.0) VCD_EXCLUDES(control_mu_);

  /// Subscribes a pre-sketched query.
  Status AddQuerySketch(int id, const sketch::Sketch& sk, int length_frames,
                        double duration_seconds) VCD_EXCLUDES(control_mu_);

  /// Loads a persisted query database (hash family must match the config).
  Status ImportQueries(const core::QueryDb& db) VCD_EXCLUDES(control_mu_);

  /// Unsubscribes a query everywhere.
  Status RemoveQuery(int id) VCD_EXCLUDES(control_mu_);

  /// Number of active queries (snapshot).
  int num_queries() const VCD_EXCLUDES(control_mu_);

  /// Opens a new monitored stream; returns its id. The stream is pinned to
  /// shard `(id - 1) % num_threads` for its whole lifetime. \p priority is
  /// its QoS class: under overload shedding, kHigh streams are never shed,
  /// kNormal streams lose 1 frame in 2 and kLow streams 3 in 4 — monotone
  /// by class, and every class keeps making progress (DESIGN.md §17).
  Result<int> OpenStream(std::string name,
                         qos::Priority priority = qos::Priority::kNormal)
      VCD_EXCLUDES(control_mu_);

  /// Flushes and closes a stream: waits for its queued frames, runs the
  /// detector's Finish, and folds its matches into the merged log. If the
  /// stream's shard is failed over, returns Unavailable without blocking;
  /// the close still takes effect when the shard drains, and its matches
  /// are folded in by a later control-plane call (orphan reaping).
  Status CloseStream(int stream_id) VCD_EXCLUDES(control_mu_);

  /// Number of currently open streams (snapshot). A close abandoned on
  /// failover keeps counting until its orphaned reply is reaped.
  int num_open_streams() const;

  /// Enqueues one key frame of stream \p stream_id on its shard.
  /// Returns NotFound for ids never issued; OK otherwise. A frame can be
  /// discarded after acceptance, but is then counted in exactly one bucket
  /// of the unified `vcd_frames_dropped_total{cause=...}` family:
  /// - cause="backpressure" — kDropNewest, full queue (never enqueued);
  /// - cause="failover" — owning shard failed over (never enqueued);
  /// - cause="deadline" — kBlock push exceeded push_deadline_ms (never
  ///   enqueued);
  /// - cause="qos_shed" — shed by the governor's priority policy (never
  ///   enqueued; also counted per class in vcd_qos_frames_shed_total);
  /// - cause="quarantine" / "failed" — enqueued, but the stream's health
  ///   machine discarded it (DESIGN.md §12);
  /// - ShardStats::frames_rejected — enqueued, but raced a CloseStream and
  ///   the stream was gone when the frame ran (not a drop family member:
  ///   the frame was addressed to a stream that no longer exists).
  Status ProcessKeyFrame(int stream_id, vcd::video::DcFrame frame);

  /// Barrier: waits until every frame and command submitted before this
  /// call has been processed, then folds all shard match logs into the
  /// merged log. Returns the first sticky processing error, if any; a
  /// failed-over shard contributes Unavailable and is skipped (its log is
  /// reaped later rather than waited for).
  Status Drain() VCD_EXCLUDES(control_mu_);

  /// All matches folded so far (after Drain()/CloseStream()), merged back
  /// into global arrival order. Snapshot copy.
  std::vector<core::StreamMatch> matches() const VCD_EXCLUDES(control_mu_);

  /// Detector stats of one open stream (round-trips through its shard, so
  /// it reflects every frame submitted before this call). Unavailable if
  /// the shard is failed over.
  Result<core::DetectorStats> StreamStats(int stream_id) VCD_EXCLUDES(control_mu_);

  /// Ingestion health of one open stream (round-trips through its shard).
  /// Unavailable if the shard is failed over.
  Result<StreamHealth> HealthOf(int stream_id) VCD_EXCLUDES(control_mu_);

  /// Checkpoint barrier: quiesces every shard (a command rides the FIFO
  /// behind all previously submitted frames, so each shard's export reflects
  /// a window boundary of its own timeline) and exports the full executor
  /// state, epoch-consistent across shards: META stamped from this
  /// executor's config, the id/sequence counters, every stream ascending by
  /// id, every match reported before the barrier (merged and still pending,
  /// by seq — what matches() would return after a Drain() there, without
  /// draining) and the governor machines. The caller adds QUERYDB and,
  /// for vcdctl, DRIVER. Refuses with Unavailable while any shard is
  /// failed over or an orphaned reply is still pending — a consistent cut
  /// is impossible then. Frames submitted concurrently with the barrier
  /// land after it and are simply not part of the snapshot.
  Result<ckpt::SnapshotState> Checkpoint() VCD_EXCLUDES(control_mu_);

  /// Restores a checkpoint onto a fresh executor.
  ///
  /// Preconditions: the portfolio has been re-imported (ImportQueries with
  /// the snapshot's embedded QueryDb) and no stream has been opened.
  /// Refuses a snapshot whose META disagrees with this executor's config
  /// (ckpt::CheckMeta, FailedPrecondition). Rebuilds each stream's
  /// detector on its home shard's portfolio (`(id - 1) % num_threads` —
  /// the same affinity the ids had before the crash, provided num_threads
  /// matches the checkpointed run) and re-validates it (typed errors on
  /// malformed state). All or nothing: a stream installs only once every
  /// stream has restored, so on any error the executor is left as it was.
  Status RestoreCkpt(const ckpt::SnapshotState& state) VCD_EXCLUDES(control_mu_);

  /// Executor counters plus per-shard stats and aggregated detector stats.
  /// Round-trips through every live shard; a failed-over shard is reported
  /// from its lock-free Snapshot() with empty detector stats instead of
  /// being waited on.
  ExecutorStats Stats() VCD_EXCLUDES(control_mu_);

  /// Number of shards (= worker threads).
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Runs one governor tick synchronously: samples every shard's pressure,
  /// advances the hysteresis machines, and applies any transitions (state
  /// gauges, shard shed gates, degrade-knob fan-out). The periodic governor
  /// thread calls exactly this; tests call it directly for deterministic
  /// tick-by-tick control. No-op while the governor is disabled.
  void TickQos() VCD_EXCLUDES(qos_mu_);

  /// Governor state of one shard (kNormal while the governor is disabled).
  qos::QosState QosStateOf(int shard) const VCD_EXCLUDES(qos_mu_);

  /// Worst (max-severity) governor state across all shards.
  qos::QosState QosGlobalState() const VCD_EXCLUDES(qos_mu_);

  /// The registry backing this executor's metric families — the one named by
  /// `ParallelConfig::metrics`, or the executor's own private registry when
  /// the config left it null. Valid for the executor's lifetime; safe to
  /// Collect()/export from any thread while streams run.
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

 private:
  /// A CloseStream/Drain reply abandoned because its shard was failed over.
  /// The promise still completes when the shard drains; ReapOrphansLocked
  /// folds the carried matches in then.
  /// A shard's reply to a close or a drain: its sticky status and the
  /// matches it logged.
  using MatchReply = std::pair<Status, std::vector<SeqMatch>>;

  struct Orphan {
    std::future<MatchReply> reply;
    bool is_close = false;  ///< successful close decrements num_open_streams_
  };

  StreamExecutor(const core::DetectorConfig& config,
                 const core::ParallelConfig& parallel);

  Shard* shard_for(int stream_id) const {
    return shards_[static_cast<size_t>(stream_id - 1) % shards_.size()].get();
  }

  /// True for an id OpenStream has issued (open or closed since).
  bool issued(int stream_id) const {
    return stream_id > 0 && stream_id < next_stream_id_.load(std::memory_order_acquire);
  }

  /// Runs \p fn on \p shard's worker, behind everything queued there, and
  /// returns a future for its result.
  template <typename Fn>
  static auto Ask(Shard* shard, Fn fn) -> std::future<decltype(fn(shard))>;

  /// StreamStats/HealthOf body: runs \p query for \p stream_id on its shard.
  template <typename T>
  Result<T> AskStream(int stream_id, Result<T> (Shard::*query)(int) const)
      VCD_EXCLUDES(control_mu_);

  /// AddQuerySketch body; requires control_mu_ held.
  Status AddQuerySketchLocked(int id, const sketch::Sketch& sk, int length_frames,
                              double duration_seconds) VCD_REQUIRES(control_mu_);

  /// Folds \p batch into merged_ keeping it sorted by sequence number.
  /// Requires control_mu_ held.
  void FoldLocked(std::vector<SeqMatch> batch) VCD_REQUIRES(control_mu_);

  /// Consumes every orphaned reply that has become ready (non-blocking).
  void ReapOrphansLocked() VCD_REQUIRES(control_mu_);

  /// Polls \p f until ready, or until \p shard is failed over — a failed
  /// shard must never block the control plane. True when the reply is ready.
  template <typename T>
  static bool WaitOrFailover(std::future<T>& f, Shard* shard);

  /// Watchdog thread body: ticks every watchdog_ms, fails over shards whose
  /// queue is non-empty but whose progress counters stopped moving, and
  /// clears the mark once they drain again.
  void WatchdogLoop();

  /// Governor thread body: TickQos() every qos.tick_ms.
  void QosLoop() VCD_EXCLUDES(qos_mu_);

  /// TickQos body; requires qos_mu_ held.
  void TickQosLocked() VCD_REQUIRES(qos_mu_);

  /// Pushes one governor transition out to the world: state gauge, dwell
  /// histogram, the shard's shed gate, and (when the degraded threshold was
  /// crossed in either direction) a degrade-knob command.
  void ApplyQosTransitionLocked(const qos::Transition& tr)
      VCD_REQUIRES(qos_mu_);

  /// Backing registry for the executor/shard/detector metric families. When
  /// `ParallelConfig::metrics` names one, it is used directly; otherwise the
  /// executor owns a private registry so Stats() accounting works without
  /// any observability wiring. Declared before config_/metrics_/shards_:
  /// everything downstream caches instruments out of it during construction.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* const registry_;

  const core::DetectorConfig config_;
  const core::ParallelConfig pconfig_;

  /// Cached `vcd_executor_*` instruments (never null: registry_ is not).
  obs::ExecutorMetrics metrics_;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the subscribed ids, the merged log, the orphan list and
  /// control-plane ordering. Never taken by ProcessKeyFrame. Outermost lock
  /// of the hierarchy (DESIGN.md §14): command fan-out takes every shard's
  /// queue lock while this is held. Detectors are built on the shard
  /// workers, so their metrics registration never runs under it.
  mutable Mutex control_mu_{LockRank::kExecutorControl, "executor.control"};
  /// Ids of the subscribed queries. The sketches live in the shards'
  /// portfolios only.
  std::set<int> query_ids_ VCD_GUARDED_BY(control_mu_);
  std::vector<SeqMatch> merged_ VCD_GUARDED_BY(control_mu_);
  std::vector<Orphan> orphans_ VCD_GUARDED_BY(control_mu_);

  std::atomic<int> next_stream_id_{1};
  std::atomic<int> num_open_streams_{0};
  std::atomic<uint64_t> next_seq_{1};

  // Watchdog machinery (thread only started when pconfig_.watchdog_ms > 0).
  // kShard: held across per-shard queue-depth snapshots (the watchdog →
  // shard → queue path), so it sits above kQueue and below the control
  // plane in the DESIGN.md §14 order — never nested with control_mu_ today,
  // but the declared order is what a future refactor is held to.
  Mutex watchdog_mu_ VCD_ACQUIRED_AFTER(control_mu_){LockRank::kShard,
                                                     "executor.watchdog"};
  CondVar watchdog_cv_;
  bool watchdog_stop_ VCD_GUARDED_BY(watchdog_mu_) = false;
  std::thread watchdog_;

  // Governor machinery (thread only started when qos.enabled && tick_ms >
  // 0; the machine itself exists whenever qos.enabled, so tests can drive
  // TickQos() by hand with tick_ms = 0). Same kShard rank and nesting story
  // as the watchdog mutex: held across per-shard pressure samples (the
  // governor → shard → queue path) and never nested with watchdog_mu_
  // (equal ranks must not nest).
  mutable Mutex qos_mu_ VCD_ACQUIRED_AFTER(control_mu_){LockRank::kShard,
                                                        "executor.qos"};
  CondVar qos_cv_;
  bool qos_stop_ VCD_GUARDED_BY(qos_mu_) = false;
  std::unique_ptr<qos::Governor> governor_ VCD_GUARDED_BY(qos_mu_);
  /// Cached `vcd_qos_*` instruments (per-shard state gauges, dwell
  /// histograms, per-priority shed counters). All-null only if the
  /// registry were null, which the ctor forbids.
  obs::QosMetrics qos_metrics_;
  std::thread qos_thread_;
};

}  // namespace vcd::parallel
