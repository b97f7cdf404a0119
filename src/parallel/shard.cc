#include "parallel/shard.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "obs/span.h"
#include "util/check.h"
#include "util/faultfx.h"
#include "util/stopwatch.h"

namespace vcd::parallel {

const char* StreamHealthName(StreamHealth h) {
  switch (h) {
    case StreamHealth::kHealthy:
      return "healthy";
    case StreamHealth::kDegraded:
      return "degraded";
    case StreamHealth::kQuarantined:
      return "quarantined";
    case StreamHealth::kFailed:
      return "failed";
  }
  return "unknown";
}

Shard::Shard(int shard_id, const core::DetectorConfig& detector_config,
             const core::ParallelConfig& config, obs::MetricsRegistry* registry)
    : shard_id_(shard_id),
      detector_config_(detector_config),
      config_(config),
      queue_(static_cast<size_t>(config.queue_capacity)),
      portfolio_(detector_config),
      metrics_(obs::ShardMetrics::Create(registry, shard_id)),
      worker_([this] { Run(); }) {
  // Snapshot() dereferences the counters unconditionally; a null registry
  // is a wiring bug (the executor always supplies one), not input.
  VCD_CHECK(registry != nullptr, "Shard requires a metrics registry");
}

Shard::~Shard() {
  queue_.Close();
  if (worker_.joinable()) worker_.join();
}

Shard::Submit Shard::SubmitFrame(uint64_t seq, int stream_id,
                                 vcd::video::DcFrame frame,
                                 qos::Priority* shed_priority) {
  if (failed()) return Submit::kFailedOver;
  if (faultfx::ShouldFire(faultfx::Site::kQueueOverflow,
                          static_cast<uint64_t>(stream_id))) {
    // Simulated overload: behave exactly as a full queue under kDropNewest.
    return Submit::kDropped;
  }
  if (qos_state() == qos::QosState::kShedding) {
    // Priority-aware shedding. The gate check runs BEFORE the lag-reference
    // update below: a shed frame never advances newest_submitted_us_, so
    // shedding cannot inflate the very lag signal that triggered it. The
    // gate lock is released before any queue push (kQos < kQueue).
    qos::Priority victim = qos::Priority::kNormal;
    bool shed = false;
    {
      MutexLock lock(qos_mu_);
      auto it = qos_gate_.find(stream_id);
      if (it != qos_gate_.end()) {
        victim = it->second.priority;
        shed = qos::ShouldShed(victim, it->second.seq++);
      }
    }
    if (shed) {
      if (shed_priority != nullptr) *shed_priority = victim;
      return Submit::kShedded;
    }
  }
  Task t;
  t.seq = seq;
  t.stream_id = stream_id;
  t.frame = std::move(frame);
  // Track the newest stream-clock timestamp entering this shard — the
  // reference point of the lag signal computed in ProcessFrame. Always on:
  // the QoS governor samples lag even when observability is compiled out.
  {
    const auto us = static_cast<int64_t>(t.frame.timestamp * 1e6);
    int64_t prev = newest_submitted_us_.load(std::memory_order_relaxed);
    while (us > prev && !newest_submitted_us_.compare_exchange_weak(
                            prev, us, std::memory_order_relaxed)) {
    }
  }
  if (config_.backpressure == core::BackpressurePolicy::kBlock) {
    if (config_.push_deadline_ms > 0) {
      const auto result = queue_.PushWithDeadline(
          std::move(t), std::chrono::milliseconds(config_.push_deadline_ms));
      VCD_OBS_SET(metrics_.queue_depth, static_cast<int64_t>(queue_.depth()));
      if (result == MpscQueueBase::PushResult::kTimeout) {
        return Submit::kDeadline;
      }
      // kClosed mirrors the unbounded Push path below: shutdown races are
      // benign and the frame is simply not processed.
      return Submit::kAccepted;
    }
    queue_.Push(std::move(t));
    VCD_OBS_SET(metrics_.queue_depth, static_cast<int64_t>(queue_.depth()));
    return Submit::kAccepted;
  }
  const bool accepted = queue_.TryPush(std::move(t));
  VCD_OBS_SET(metrics_.queue_depth, static_cast<int64_t>(queue_.depth()));
  return accepted ? Submit::kAccepted : Submit::kDropped;
}

void Shard::RegisterStreamQos(int stream_id, qos::Priority priority) {
  MutexLock lock(qos_mu_);
  qos_gate_[stream_id] = GateEntry{priority, 0};
}

void Shard::UnregisterStreamQos(int stream_id) {
  MutexLock lock(qos_mu_);
  qos_gate_.erase(stream_id);
}

void Shard::SubmitCommand(Command cmd) {
  Task t;
  t.command = std::move(cmd);
  queue_.PushUnbounded(std::move(t));
}

ShardStats Shard::Snapshot() const {
  ShardStats s;
  s.shard_id = shard_id_;
  s.num_streams = num_streams_.load(std::memory_order_relaxed);
  // Frame accounting reads back through the metrics registry — the same
  // counters vcdctl exports, so a snapshot can never disagree with the
  // exported metrics.
  s.frames_processed = metrics_.frames_processed_total->Value();
  s.frames_rejected = metrics_.frames_rejected_total->Value();
  s.commands_processed = commands_processed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.depth();
  s.queue_high_water = queue_.high_water();
  s.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  s.frames_degraded = metrics_.frames_degraded_total->Value();
  s.frames_quarantined = metrics_.frames_quarantined_total->Value();
  s.frames_failed = metrics_.frames_failed_total->Value();
  s.quarantine_events = metrics_.quarantine_events_total->Value();
  s.streams_quarantined = streams_quarantined_.load(std::memory_order_relaxed);
  s.streams_failed = streams_failed_.load(std::memory_order_relaxed);
  s.failed_over = failed();
  s.qos_state = qos_state_.load(std::memory_order_relaxed);
  return s;
}

void Shard::Run() {
  Task t;
  while (queue_.Pop(&t)) {
    double stall_ms = 0.0;
    // Keyed shard_id + 1 so a plan can target one shard (key 0 = any).
    if (faultfx::ShouldFire(faultfx::Site::kShardStall,
                            static_cast<uint64_t>(shard_id_) + 1, &stall_ms) &&
        stall_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int64_t>(stall_ms)));
    }
    Stopwatch sw;
    if (t.command) {
      t.command(this);
      commands_processed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ProcessFrame(t);
    }
    busy_nanos_.fetch_add(static_cast<int64_t>(sw.ElapsedSeconds() * 1e9),
                          std::memory_order_relaxed);
    VCD_OBS_SET(metrics_.queue_depth, static_cast<int64_t>(queue_.depth()));
  }
}

void Shard::ProcessFrame(Task& t) {
  // Stream-clock lag: how far the frame being processed trails the newest
  // timestamp submitted to this shard — the continuous-monitoring "how far
  // behind real time" signal (per shard; microseconds of stream time).
  // Maintained unconditionally: this is also the governor's lag input.
  {
    const auto us = static_cast<int64_t>(t.frame.timestamp * 1e6);
    const int64_t lag =
        newest_submitted_us_.load(std::memory_order_relaxed) - us;
    last_lag_us_.store(lag > 0 ? lag : 0, std::memory_order_relaxed);
    VCD_OBS_SET(metrics_.stream_lag_us, lag > 0 ? lag : 0);
  }
  auto it = streams_.find(t.stream_id);
  if (it == streams_.end()) {
    // The stream was closed (or never installed) before this frame ran —
    // the asynchronous analogue of a NotFound for an unknown stream.
    metrics_.frames_rejected_total->Inc();
    return;
  }
  StreamSlot& slot = it->second;
  if (slot.health == StreamHealth::kFailed) {
    metrics_.frames_failed_total->Inc();
    metrics_.dropped_failed->Inc();
    return;
  }
  if (slot.health == StreamHealth::kQuarantined) {
    metrics_.frames_quarantined_total->Inc();
    metrics_.dropped_quarantine->Inc();
    if (--slot.quarantine_remaining <= 0) {
      // Backoff served: readmit on probation (kDegraded, not kHealthy —
      // it still needs recover_after_frames clean frames).
      slot.health = StreamHealth::kDegraded;
      slot.consecutive_faults = 0;
      slot.consecutive_clean = 0;
      streams_quarantined_.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  const uint64_t key = static_cast<uint64_t>(t.stream_id);
  bool fault = t.frame.degraded;
  if (faultfx::ShouldFire(faultfx::Site::kDecodeError, key)) {
    t.frame.degraded = true;
    fault = true;
  }
  double skew = 0.0;
  if (faultfx::ShouldFire(faultfx::Site::kClockSkew, key, &skew)) {
    t.frame.timestamp += skew;
  }
  const int64_t out_of_order = slot.detector->stats().out_of_order_frames;
  Status st = slot.detector->ProcessKeyFrame(t.frame);
  if (!st.ok() && first_error_.ok()) first_error_ = st;
  LogMatches(t.stream_id, &slot, t.seq);
  metrics_.frames_processed_total->Inc();
  // Clock skew counts as a fault for the health machine: the detector's
  // guard demoted the frame even though it arrived with degraded = false.
  if (slot.detector->stats().out_of_order_frames != out_of_order) fault = true;
  if (fault) metrics_.frames_degraded_total->Inc();
  UpdateHealth(t.stream_id, &slot, fault);
}

void Shard::UpdateHealth(int stream_id, StreamSlot* slot, bool fault) {
  if (!fault) {
    slot->consecutive_faults = 0;
    if (slot->health != StreamHealth::kHealthy &&
        ++slot->consecutive_clean >= config_.recover_after_frames) {
      slot->health = StreamHealth::kHealthy;
      slot->backoff_frames = config_.quarantine_backoff_frames;
      slot->consecutive_clean = 0;
    }
    return;
  }
  slot->consecutive_clean = 0;
  ++slot->consecutive_faults;
  if (config_.on_corruption == core::CorruptionPolicy::kFail) {
    slot->health = StreamHealth::kFailed;
    streams_failed_.fetch_add(1, std::memory_order_relaxed);
    if (first_error_.ok()) {
      first_error_ = Status::Corruption(
          "stream " + std::to_string(stream_id) +
          " (" + slot->name + ") failed on corrupted input (policy fail)");
    }
    return;
  }
  if (config_.on_corruption == core::CorruptionPolicy::kQuarantine &&
      slot->consecutive_faults >= config_.quarantine_after_faults) {
    slot->health = StreamHealth::kQuarantined;
    slot->quarantine_remaining = slot->backoff_frames;
    slot->backoff_frames =
        std::min<int64_t>(slot->backoff_frames * 2,
                          config_.quarantine_backoff_max_frames);
    slot->consecutive_faults = 0;
    metrics_.quarantine_events_total->Inc();
    streams_quarantined_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (slot->consecutive_faults >= config_.degraded_after_faults) {
    slot->health = StreamHealth::kDegraded;
  }
}

void Shard::LogMatches(int stream_id, StreamSlot* slot, uint64_t seq) {
  if (slot->detector->matches().empty()) return;
  for (const core::Match& m : slot->detector->TakeMatches()) {
    log_.push_back(SeqMatch{seq, core::StreamMatch{stream_id, slot->name, m}});
  }
}

void Shard::InstallSlot(int stream_id, StreamSlot slot) {
  // A stream opened or restored while the shard is degraded joins at the
  // shard's current quality level, not full quality.
  slot.detector->SetDegrade(active_knobs_);
  const bool added = streams_.emplace(stream_id, std::move(slot)).second;
  VCD_CHECK(added, "stream id installed twice on one shard");
  num_streams_.fetch_add(1, std::memory_order_relaxed);
}

void Shard::OpenStream(int stream_id, std::string name) {
  auto det = core::CopyDetector::Create(detector_config_, &portfolio_);
  if (!det.ok()) {
    if (first_error_.ok()) first_error_ = det.status();
    return;
  }
  StreamSlot slot;
  slot.name = std::move(name);
  slot.detector = std::move(det).value();
  slot.backoff_frames = config_.quarantine_backoff_frames;
  InstallSlot(stream_id, std::move(slot));
}

Status Shard::StageRestore(std::vector<core::StreamCkpt> slots) {
  for (core::StreamCkpt& ckpt : slots) {
    auto det = core::CopyDetector::Create(detector_config_, &portfolio_);
    if (!det.ok()) return det.status();
    VCD_RETURN_IF_ERROR((*det)->RestoreCkptState(ckpt.detector));
    ckpt.detector = core::DetectorCkptState{};  // restored; free the copy
    staged_.emplace_back(std::move(ckpt), std::move(det).value());
  }
  return Status::OK();
}

void Shard::FinishRestore(bool install) {
  auto staged = std::move(staged_);
  staged_.clear();
  if (!install) return;
  for (auto& [ckpt, detector] : staged) {
    StreamSlot slot;
    slot.name = ckpt.name;
    slot.detector = std::move(detector);
    slot.health = static_cast<StreamHealth>(ckpt.health);
    slot.consecutive_faults = ckpt.consecutive_faults;
    slot.consecutive_clean = ckpt.consecutive_clean;
    slot.quarantine_remaining = ckpt.quarantine_remaining;
    // Clamped into this shard's configured range: a snapshot taken under
    // another config may carry any value, and a backoff of 0, which only
    // ever doubles, would make every quarantine last one frame.
    slot.backoff_frames =
        std::clamp<int64_t>(ckpt.backoff_frames, config_.quarantine_backoff_frames,
                            config_.quarantine_backoff_max_frames);
    if (slot.health == StreamHealth::kQuarantined) {
      streams_quarantined_.fetch_add(1, std::memory_order_relaxed);
    }
    if (slot.health == StreamHealth::kFailed) {
      streams_failed_.fetch_add(1, std::memory_order_relaxed);
    }
    InstallSlot(ckpt.stream_id, std::move(slot));
  }
}

void Shard::ExportCkpt(std::vector<core::StreamCkpt>* slots,
                       std::vector<SeqMatch>* pending_log) const {
  for (const auto& [sid, slot] : streams_) {
    core::StreamCkpt s;
    s.stream_id = sid;
    s.name = slot.name;
    s.health = static_cast<int>(slot.health);
    s.consecutive_faults = slot.consecutive_faults;
    s.consecutive_clean = slot.consecutive_clean;
    s.quarantine_remaining = slot.quarantine_remaining;
    s.backoff_frames = slot.backoff_frames;
    {
      MutexLock lock(qos_mu_);
      auto it = qos_gate_.find(sid);
      if (it != qos_gate_.end()) s.priority = static_cast<int>(it->second.priority);
    }
    s.detector = slot.detector->ExportCkptState();
    slots->push_back(std::move(s));
  }
  pending_log->insert(pending_log->end(), log_.begin(), log_.end());
}

Status Shard::FinishStream(int stream_id, uint64_t close_seq,
                           std::vector<SeqMatch>* out) {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return Status::NotFound("no such stream");
  if (it->second.health == StreamHealth::kQuarantined) {
    streams_quarantined_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (it->second.health == StreamHealth::kFailed) {
    streams_failed_.fetch_sub(1, std::memory_order_relaxed);
  }
  Status st = it->second.detector->Finish();
  LogMatches(stream_id, &it->second, close_seq);
  out->swap(log_);
  streams_.erase(it);
  num_streams_.fetch_sub(1, std::memory_order_relaxed);
  return st;
}

void Shard::ApplyAddQuery(int id, sketch::Sketch sk, int length_frames,
                          double duration_seconds) {
  Status st =
      portfolio_.AddQuerySketch(id, std::move(sk), length_frames, duration_seconds);
  if (!st.ok() && first_error_.ok()) first_error_ = st;
}

void Shard::ApplyRemoveQuery(int id) {
  Status st = portfolio_.RemoveQuery(id);
  if (!st.ok() && first_error_.ok()) first_error_ = st;
}

Status Shard::TakeMatches(std::vector<SeqMatch>* out) {
  out->insert(out->end(), std::make_move_iterator(log_.begin()),
              std::make_move_iterator(log_.end()));
  log_.clear();
  return first_error_;
}

Result<core::DetectorStats> Shard::StatsOf(int stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return Status::NotFound("no such stream");
  return it->second.detector->stats();
}

Result<StreamHealth> Shard::HealthOf(int stream_id) const {
  auto it = streams_.find(stream_id);
  if (it == streams_.end()) return Status::NotFound("no such stream");
  return it->second.health;
}

core::DetectorStats Shard::AggregateDetectorStats() const {
  core::DetectorStats agg;
  for (const auto& [sid, slot] : streams_) {
    const core::DetectorStats& s = slot.detector->stats();
    agg.key_frames += s.key_frames;
    agg.windows += s.windows;
    agg.sketch_combines += s.sketch_combines;
    agg.sketch_compares += s.sketch_compares;
    agg.bitsig_ors += s.bitsig_ors;
    agg.bitsig_builds += s.bitsig_builds;
    agg.candidates_pruned += s.candidates_pruned;
    agg.degraded_frames += s.degraded_frames;
    agg.degraded_windows += s.degraded_windows;
    agg.out_of_order_frames += s.out_of_order_frames;
    agg.qos_skipped_windows += s.qos_skipped_windows;
    agg.signatures_per_window.Merge(s.signatures_per_window);
    agg.candidates_per_window.Merge(s.candidates_per_window);
    agg.pool_slots_per_window.Merge(s.pool_slots_per_window);
  }
  return agg;
}

void Shard::ApplyDegrade(const qos::DegradeKnobs& knobs) {
  active_knobs_ = knobs;
  for (auto& [sid, slot] : streams_) {
    slot.detector->SetDegrade(knobs);
  }
}

}  // namespace vcd::parallel
