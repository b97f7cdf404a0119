#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/state_codec.h"
#include "core/config.h"
#include "core/detector.h"
#include "core/portfolio.h"
#include "obs/pipeline_metrics.h"
#include "parallel/mpsc_queue.h"
#include "qos/qos.h"
#include "util/mutex.h"
#include "video/partial_decoder.h"

/// \file shard.h
/// One shard of the parallel stream executor: a worker thread, its bounded
/// submission queue, its query portfolio, and the detection state of the
/// streams pinned to it.
///
/// Candidate lists are inherently per-stream, so shards share nothing on
/// the frame path: every stream's detector lives on exactly one shard, and
/// all mutation happens on that shard's worker thread. The shard's streams
/// share its one `core::Portfolio` (query table and Hash-Query index), so a
/// subscription change is one call per shard. The control plane
/// talks to a shard only through commands enqueued into the same FIFO queue
/// as frames, which is what makes ordering deterministic: a command takes
/// effect after every frame submitted before it and before every frame
/// submitted after it — as if each stream's detector were driven serially.
///
/// ### Lock discipline
/// A shard's frame-path synchronization point is the bounded MPSC queue
/// (whose state is `VCD_GUARDED_BY` its lock, see parallel/mpsc_queue.h);
/// `portfolio_`, `streams_`, `log_` and `first_error_` are owned by the
/// single consumer thread — a confinement Clang's Thread Safety Analysis
/// cannot express, so the split below is enforced by convention: the
/// "shard-thread side" methods run only inside a queued Command, and
/// cross-thread reads go through the relaxed-atomic counters in
/// Snapshot(). The only shard mutex is the kQos-ranked shed gate
/// (`qos_mu_`), which holds every stream's priority: taken briefly on the
/// producer side while the governor holds the shard in Shedding, by the
/// control plane when a stream registers, and by ExportCkpt on the worker;
/// it is never held across a queue push (kQos < kQueue in the lock
/// hierarchy).

namespace vcd::parallel {

/// A match tagged with the global submission sequence number of the frame
/// (or close command) that produced it — the merge key that restores
/// arrival order across shards, and the MATCHES record of a snapshot.
using SeqMatch = ckpt::SnapshotMatch;

/// Per-stream ingestion health (DESIGN.md §12). Transitions happen on the
/// owning shard's worker thread as frames arrive:
/// healthy → degraded (consecutive faults) → quarantined (kQuarantine
/// policy; frames discarded for an exponentially backed-off count) →
/// degraded (readmission on probation) → healthy (consecutive clean
/// frames). Under CorruptionPolicy::kFail the first fault moves the stream
/// to kFailed permanently.
enum class StreamHealth {
  kHealthy = 0,
  kDegraded,
  kQuarantined,
  kFailed,
};

/// Human-readable health name ("healthy"/"degraded"/...).
const char* StreamHealthName(StreamHealth h);

/// Counters one shard exposes. Snapshots are cheap (relaxed atomics + queue
/// gauges) and may be taken while the shard is running.
struct ShardStats {
  int shard_id = 0;
  int num_streams = 0;             ///< streams currently pinned to this shard
  int64_t frames_processed = 0;    ///< frames run through a detector
  int64_t frames_rejected = 0;     ///< frames for unknown/closed streams
  int64_t commands_processed = 0;  ///< control commands applied
  size_t queue_depth = 0;          ///< current submission-queue occupancy
  size_t queue_high_water = 0;     ///< max occupancy ever observed
  double busy_seconds = 0.0;       ///< wall time spent processing tasks

  // Failure taxonomy (DESIGN.md §12). frames_degraded is a subset of
  // frames_processed; the discard counters are disjoint from it.
  int64_t frames_degraded = 0;     ///< processed frames that carried a fault
  int64_t frames_quarantined = 0;  ///< frames discarded while quarantined
  int64_t frames_failed = 0;       ///< frames discarded on a kFailed stream
  int64_t quarantine_events = 0;   ///< times any stream entered quarantine
  int streams_quarantined = 0;     ///< streams currently quarantined (gauge)
  int streams_failed = 0;          ///< streams currently failed (gauge)
  bool failed_over = false;        ///< watchdog has failed this shard over
  int qos_state = 0;               ///< numeric qos::QosState set by the governor
};

/// \brief Worker thread + queue + per-stream detectors of one shard.
class Shard {
 public:
  /// A control command, executed on the shard's worker thread. Commands run
  /// in FIFO order with frames and are never dropped by backpressure.
  using Command = std::function<void(Shard*)>;

  /// Result of a frame submission.
  enum class Submit {
    kAccepted,
    kDropped,     ///< kDropNewest backpressure: the queue was full
    kFailedOver,  ///< the watchdog has failed this shard over
    kShedded,     ///< QoS governor in Shedding: the priority policy dropped it
    kDeadline,    ///< kBlock + push_deadline_ms: the wait timed out
  };

  /// Every stream's detector runs \p detector_config (already validated) on
  /// the shard's portfolio. \p registry receives this shard's `vcd_shard_*`
  /// metric family (labeled `shard="<id>"`) and is the storage behind the
  /// frame-accounting fields of Snapshot(). Must be non-null and outlive the
  /// shard — the executor always provides one (its own private registry when
  /// the config does not name a process registry).
  Shard(int shard_id, const core::DetectorConfig& detector_config,
        const core::ParallelConfig& config, obs::MetricsRegistry* registry);

  /// Closes the queue, drains remaining tasks and joins the worker.
  ~Shard();

  // --- producer side (any thread) ---------------------------------------

  /// Enqueues one key frame of \p stream_id. Blocks when the queue is full
  /// under kBlock (bounded by `push_deadline_ms` when configured — the
  /// timeout returns kDeadline); returns kDropped under kDropNewest. While
  /// the shard is failed over (watchdog), returns kFailedOver without
  /// touching the queue — a failed shard must never block a producer. While
  /// the governor holds this shard in Shedding, the priority policy may
  /// return kShedded (filling \p shed_priority with the victim's class)
  /// before the frame reaches the queue or the lag reference point.
  Submit SubmitFrame(uint64_t seq, int stream_id, vcd::video::DcFrame frame,
                     qos::Priority* shed_priority = nullptr);

  /// Enqueues a control command. Commands bypass the capacity bound
  /// (PushUnbounded) and are never dropped, whatever the backpressure
  /// policy — a saturated or stalled frame queue cannot wedge the control
  /// plane.
  void SubmitCommand(Command cmd);

  /// Cheap counter snapshot; safe from any thread at any time.
  ShardStats Snapshot() const;

  // --- watchdog side (any thread) ----------------------------------------

  /// Marks the shard failed over: producers get kFailedOver, control-plane
  /// round trips return Unavailable instead of waiting on it.
  void MarkFailed() { failed_.store(true, std::memory_order_release); }

  /// Clears the failover mark once the shard drains again.
  void ClearFailed() { failed_.store(false, std::memory_order_release); }

  /// True while the shard is failed over.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // --- governor side (any thread) ----------------------------------------

  /// Sets the shard's QoS state. Only the Shedding state changes producer
  /// behavior (the shed gate arms); Degraded-mode detector knobs are fanned
  /// out separately as ApplyDegrade commands so they land on window
  /// boundaries.
  void SetQosState(qos::QosState state) {
    qos_state_.store(static_cast<int>(state), std::memory_order_release);
  }

  /// Current QoS state as set by the governor.
  qos::QosState qos_state() const {
    return static_cast<qos::QosState>(
        qos_state_.load(std::memory_order_acquire));
  }

  /// Registers \p stream_id with the shed gate under \p priority — the
  /// stream's only priority record, which ExportCkpt copies into its
  /// snapshot. Called at stream open/restore; idempotent (re-registration
  /// updates the class).
  void RegisterStreamQos(int stream_id, qos::Priority priority);

  /// Forgets \p stream_id's shed-gate entry. Called at stream close.
  void UnregisterStreamQos(int stream_id);

  /// Stream-clock lag of the most recently processed frame, microseconds —
  /// the governor's per-shard pressure signal. Always maintained (not gated
  /// on obs::kEnabled).
  int64_t stream_lag_us() const {
    return last_lag_us_.load(std::memory_order_relaxed);
  }

  /// Frame-queue occupancy and capacity, for governor pressure sampling.
  size_t queue_depth() const { return queue_.depth(); }
  size_t queue_capacity() const { return queue_.capacity(); }

  // --- shard-thread side (call only from inside a Command) --------------

  /// Opens stream \p stream_id: builds its detector on the shard's
  /// portfolio and installs it. A detector that cannot be built becomes the
  /// sticky first error, and the stream's frames are rejected.
  void OpenStream(int stream_id, std::string name);

  /// First half of an all-or-nothing restore: builds a detector for each of
  /// \p slots on the shard's portfolio, restores its checkpointed state
  /// (typed errors on malformed state) and stages it, uninstalled. Returns
  /// the first error.
  Status StageRestore(std::vector<core::StreamCkpt> slots);

  /// Second half: installs every staged stream when \p install, else drops
  /// them. A restored slot's health machine resumes from the snapshot
  /// instead of kHealthy: the quarantine gauges are re-derived from the
  /// restored health, and the next quarantine's length is clamped into
  /// [quarantine_backoff_frames, quarantine_backoff_max_frames] of this
  /// shard's config.
  void FinishRestore(bool install);

  /// Exports every stream slot on this shard (health machine, shed-gate
  /// priority, detector state) plus a COPY of the pending match log. The
  /// log is not drained: matches stay queued for the next TakeMatches, so a
  /// checkpoint never perturbs what the live run reports.
  void ExportCkpt(std::vector<core::StreamCkpt>* slots,
                  std::vector<SeqMatch>* pending_log) const;

  /// Finishes a stream: flushes its trailing window, moves its final
  /// matches (tagged \p close_seq) into \p out and forgets it.
  Status FinishStream(int stream_id, uint64_t close_seq, std::vector<SeqMatch>* out);

  /// Subscribes a query on the shard's portfolio, for every stream on it.
  void ApplyAddQuery(int id, sketch::Sketch sk, int length_frames,
                     double duration_seconds);

  /// Unsubscribes a query from the shard's portfolio.
  void ApplyRemoveQuery(int id);

  /// Moves the accumulated match log into \p out and returns the sticky
  /// first processing error (OK when none).
  Status TakeMatches(std::vector<SeqMatch>* out);

  /// Detector stats of one stream; NotFound if it is not on this shard.
  Result<core::DetectorStats> StatsOf(int stream_id) const;

  /// Ingestion health of one stream; NotFound if it is not on this shard.
  Result<StreamHealth> HealthOf(int stream_id) const;

  /// Aggregated detector stats over all streams currently on this shard.
  core::DetectorStats AggregateDetectorStats() const;

  /// Applies \p knobs to every detector on this shard and remembers them
  /// for streams installed later. Runs as a queued command, so the change
  /// lands on a window boundary of everything submitted before it.
  void ApplyDegrade(const qos::DegradeKnobs& knobs);

 private:
  /// One queued unit of work: a frame when `command` is empty, else a
  /// command.
  struct Task {
    uint64_t seq = 0;
    int stream_id = 0;
    vcd::video::DcFrame frame;
    Command command;
  };

  struct StreamSlot {
    std::string name;
    std::unique_ptr<core::CopyDetector> detector;

    // Health state machine (worker-thread-owned, frame-count based so
    // transitions are deterministic under test).
    StreamHealth health = StreamHealth::kHealthy;
    int consecutive_faults = 0;
    int consecutive_clean = 0;
    int64_t quarantine_remaining = 0;  ///< frames left to discard
    int64_t backoff_frames = 0;        ///< next quarantine's length
  };

  /// Worker loop: pops tasks until the queue is closed and drained.
  void Run();

  /// Processes one frame task on the worker thread (may perturb the frame
  /// via injected faults, hence mutable).
  void ProcessFrame(Task& t);

  /// Advances \p slot's health state machine after a frame whose fault
  /// status is \p fault.
  void UpdateHealth(int stream_id, StreamSlot* slot, bool fault);

  /// Takes \p slot's detector's new matches into log_, tagged \p seq.
  void LogMatches(int stream_id, StreamSlot* slot, uint64_t seq);

  /// Adds \p slot under \p stream_id, which must not be on this shard yet.
  void InstallSlot(int stream_id, StreamSlot slot);

  const int shard_id_;
  const core::DetectorConfig detector_config_;
  const core::ParallelConfig config_;
  BoundedMpscQueue<Task> queue_;

  // Worker-thread-owned state (no locking: single consumer). The portfolio
  // is declared first, so it outlives the detectors built on it.
  core::Portfolio portfolio_;
  std::map<int, StreamSlot> streams_;
  /// Restored streams awaiting FinishRestore, each with its snapshot slot.
  std::vector<std::pair<core::StreamCkpt, std::unique_ptr<core::CopyDetector>>> staged_;
  std::vector<SeqMatch> log_;
  Status first_error_;
  /// Degrade knobs currently applied to this shard's detectors; identity
  /// when the governor is Normal/Recovering. Applied to streams installed
  /// while the shard is degraded.
  qos::DegradeKnobs active_knobs_;

  /// One shed-gate entry per registered stream: its priority, and `seq`,
  /// its weighted-round-robin position, advanced only while the shard
  /// sheds — so a governor that never triggers leaves the gate untouched.
  struct GateEntry {
    qos::Priority priority = qos::Priority::kNormal;
    uint64_t seq = 0;
  };
  /// Shed gate. The producer side takes it only when qos_state_ says
  /// Shedding, and releases it before any queue push — kQos < kQueue in the
  /// lock hierarchy, so holding it across a push would be a rank inversion.
  mutable Mutex qos_mu_{LockRank::kQos, "shard.qos_gate"};
  std::map<int, GateEntry> qos_gate_ VCD_GUARDED_BY(qos_mu_);

  // Counters readable from any thread. Frame accounting lives in the
  // metrics registry (metrics_ below) — Snapshot() reads those counters
  // back, so the registry is the one source of truth; only gauges that the
  // registry does not model bidirectionally (current stream census, busy
  // time) stay as member atomics.
  std::atomic<int> num_streams_{0};
  std::atomic<int64_t> commands_processed_{0};
  std::atomic<int64_t> busy_nanos_{0};
  std::atomic<int> streams_quarantined_{0};
  std::atomic<int> streams_failed_{0};
  std::atomic<bool> failed_{false};
  /// Highest frame timestamp submitted to this shard, in microseconds of
  /// stream time — the reference point of the per-stream lag signal.
  std::atomic<int64_t> newest_submitted_us_{0};
  /// Lag of the most recently processed frame against that reference.
  /// Maintained unconditionally (the governor samples it even when the
  /// observability layer is compiled out).
  std::atomic<int64_t> last_lag_us_{0};
  /// Numeric qos::QosState, written by the governor, read by producers.
  std::atomic<int> qos_state_{0};

  /// Cached `vcd_shard_*` instruments (never null; see ctor contract).
  obs::ShardMetrics metrics_;

  std::thread worker_;
};

}  // namespace vcd::parallel
