#include "parallel/executor.h"

#include <algorithm>

#include "obs/span.h"
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <utility>

namespace vcd::parallel {

namespace {

/// Points per-stream detectors at the executor's registry unless the caller
/// already wired an explicit one into the detector config.
core::DetectorConfig WithMetrics(core::DetectorConfig config,
                                 obs::MetricsRegistry* registry) {
  if (config.metrics == nullptr) config.metrics = registry;
  return config;
}

}  // namespace

StreamExecutor::StreamExecutor(const core::DetectorConfig& config,
                               const core::ParallelConfig& parallel)
    : owned_registry_(parallel.metrics ? nullptr
                                       : std::make_unique<obs::MetricsRegistry>()),
      registry_(parallel.metrics ? parallel.metrics : owned_registry_.get()),
      config_(WithMetrics(config, registry_)),
      pconfig_(parallel),
      metrics_(obs::ExecutorMetrics::Create(registry_)) {
  int n = parallel.num_threads;
  if (n == 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n < 1) n = 1;
  }
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_, parallel, registry_));
  }
  qos_metrics_ = obs::QosMetrics::Create(registry_, n);
  if (pconfig_.qos.enabled) {
    MutexLock lock(qos_mu_);
    governor_ = std::make_unique<qos::Governor>(pconfig_.qos, n);
  }
  if (pconfig_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  if (pconfig_.qos.enabled && pconfig_.qos.tick_ms > 0) {
    qos_thread_ = std::thread([this] { QosLoop(); });
  }
}

StreamExecutor::~StreamExecutor() {
  if (qos_thread_.joinable()) {
    {
      MutexLock lock(qos_mu_);
      qos_stop_ = true;
    }
    qos_cv_.NotifyOne();
    qos_thread_.join();
  }
  if (watchdog_.joinable()) {
    {
      MutexLock lock(watchdog_mu_);
      watchdog_stop_ = true;
    }
    watchdog_cv_.NotifyOne();
    watchdog_.join();
  }
  // shards_ destruction closes the queues and joins the workers; a shard
  // that was failed over still drains everything that was queued.
}

Result<std::unique_ptr<StreamExecutor>> StreamExecutor::Create(
    const core::DetectorConfig& config, const core::ParallelConfig& parallel) {
  VCD_RETURN_IF_ERROR(config.Validate());
  VCD_RETURN_IF_ERROR(parallel.Validate());
  return std::unique_ptr<StreamExecutor>(new StreamExecutor(config, parallel));
}

void StreamExecutor::WatchdogLoop() {
  // A shard is "making progress" when any of its task-consumption counters
  // move: processed and rejected frames, health-machine discards, and
  // commands all count — a quarantined stream's discards are progress.
  const auto progress_of = [](const ShardStats& s) {
    return s.frames_processed + s.frames_rejected + s.commands_processed +
           s.frames_quarantined + s.frames_failed;
  };
  std::vector<int64_t> last_progress(shards_.size(), -1);
  std::vector<int> stale_ticks(shards_.size(), 0);
  MutexLock lock(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.WaitFor(watchdog_mu_,
                         std::chrono::milliseconds(pconfig_.watchdog_ms));
    if (watchdog_stop_) break;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const ShardStats s = shards_[i]->Snapshot();
      const int64_t progress = progress_of(s);
      if (s.queue_depth > 0 && progress == last_progress[i]) {
        // Work is queued but nothing moved since the last tick: the worker
        // is stalled. Two consecutive stale ticks avoid failing over a
        // shard that was merely mid-task when two snapshots straddled it.
        if (++stale_ticks[i] >= 2) {
          // Count transitions, not ticks: a shard stuck for many ticks is
          // one failover until it drains and gets marked again.
          if (!shards_[i]->failed()) metrics_.watchdog_failovers_total->Inc();
          shards_[i]->MarkFailed();
        }
      } else {
        stale_ticks[i] = 0;
        if (shards_[i]->failed()) shards_[i]->ClearFailed();
      }
      last_progress[i] = progress;
    }
  }
}

void StreamExecutor::QosLoop() {
  MutexLock lock(qos_mu_);
  while (!qos_stop_) {
    qos_cv_.WaitFor(qos_mu_, std::chrono::milliseconds(pconfig_.qos.tick_ms));
    if (qos_stop_) break;
    TickQosLocked();
  }
}

void StreamExecutor::TickQos() {
  MutexLock lock(qos_mu_);
  TickQosLocked();
}

void StreamExecutor::TickQosLocked() {
  if (governor_ == nullptr) return;
  std::vector<qos::ShardSample> samples(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    samples[i].queue_depth = shards_[i]->queue_depth();
    samples[i].queue_capacity = shards_[i]->queue_capacity();
    samples[i].stream_lag_us = shards_[i]->stream_lag_us();
  }
  std::vector<qos::Transition> transitions;
  governor_->Tick(samples, &transitions);
  for (const qos::Transition& tr : transitions) {
    ApplyQosTransitionLocked(tr);
  }
}

void StreamExecutor::ApplyQosTransitionLocked(const qos::Transition& tr) {
  qos_metrics_.shard_state[static_cast<size_t>(tr.shard)]->Set(
      static_cast<int64_t>(tr.to));
  qos_metrics_.dwell_ticks[static_cast<int>(tr.from)]->Observe(tr.dwell_ticks);
  Shard* shard = shards_[static_cast<size_t>(tr.shard)].get();
  shard->SetQosState(tr.to);
  // The degrade knobs flip only when the Degraded severity line is crossed:
  // Degraded ↔ Shedding moves keep them, Recovering restores full quality.
  const bool was_degraded = tr.from >= qos::QosState::kDegraded;
  const bool now_degraded = tr.to >= qos::QosState::kDegraded;
  if (was_degraded != now_degraded) {
    const qos::DegradeKnobs knobs =
        now_degraded ? pconfig_.qos.degrade : qos::DegradeKnobs{};
    shard->SubmitCommand([knobs](Shard* s) { s->ApplyDegrade(knobs); });
  }
}

qos::QosState StreamExecutor::QosStateOf(int shard) const {
  MutexLock lock(qos_mu_);
  if (governor_ == nullptr) return qos::QosState::kNormal;
  return governor_->shard_state(shard);
}

qos::QosState StreamExecutor::QosGlobalState() const {
  MutexLock lock(qos_mu_);
  if (governor_ == nullptr) return qos::QosState::kNormal;
  return governor_->global_state();
}

template <typename Fn>
auto StreamExecutor::Ask(Shard* shard, Fn fn) -> std::future<decltype(fn(shard))> {
  auto promise = std::make_shared<std::promise<decltype(fn(shard))>>();
  auto future = promise->get_future();
  shard->SubmitCommand([promise, fn = std::move(fn)](Shard* s) mutable {
    promise->set_value(fn(s));
  });
  return future;
}

template <typename T>
bool StreamExecutor::WaitOrFailover(std::future<T>& f, Shard* shard) {
  for (;;) {
    if (f.wait_for(std::chrono::milliseconds(2)) == std::future_status::ready) {
      return true;
    }
    if (shard->failed()) return false;
  }
}

void StreamExecutor::ReapOrphansLocked() {
  for (size_t i = 0; i < orphans_.size();) {
    if (orphans_[i].reply.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    auto reply = orphans_[i].reply.get();
    if (!orphans_[i].is_close || reply.first.ok()) {
      if (orphans_[i].is_close) {
        num_open_streams_.fetch_sub(1, std::memory_order_relaxed);
        VCD_OBS_SET(metrics_.streams_open,
                    num_open_streams_.load(std::memory_order_relaxed));
      }
      FoldLocked(std::move(reply.second));
    }
    orphans_.erase(orphans_.begin() + static_cast<long>(i));
  }
}

Status StreamExecutor::AddQuerySketchLocked(int id, const sketch::Sketch& sk,
                                            int length_frames,
                                            double duration_seconds) {
  // Every shard's portfolio would refuse an invalid query as a sticky
  // error; reject it here, before anything changes.
  VCD_RETURN_IF_ERROR(
      core::ValidateQuerySketch(config_, sk, length_frames, duration_seconds));
  if (!query_ids_.insert(id).second) {
    return Status::AlreadyExists("query id " + std::to_string(id));
  }
  // Fan out while still holding control_mu_, so every shard sees portfolio
  // commands and stream installs in the same relative order.
  for (auto& shard : shards_) {
    shard->SubmitCommand([id, sk, length_frames, duration_seconds](Shard* s) mutable {
      s->ApplyAddQuery(id, std::move(sk), length_frames, duration_seconds);
    });
  }
  return Status::OK();
}

Status StreamExecutor::AddQuerySketch(int id, const sketch::Sketch& sk,
                                      int length_frames, double duration_seconds) {
  MutexLock lock(control_mu_);
  return AddQuerySketchLocked(id, sk, length_frames, duration_seconds);
}

Status StreamExecutor::AddQuery(int id,
                                const std::vector<vcd::video::DcFrame>& key_frames,
                                double duration_seconds) {
  auto prepared = core::PrepareQuery(config_, key_frames, duration_seconds);
  if (!prepared.ok()) return prepared.status();
  return AddQuerySketch(id, prepared->sketch, prepared->length_frames,
                        prepared->duration_seconds);
}

Status StreamExecutor::ImportQueries(const core::QueryDb& db) {
  if (db.k != config_.K) {
    return Status::FailedPrecondition("query db K does not match executor config");
  }
  if (db.hash_seed != config_.hash_seed) {
    return Status::FailedPrecondition("query db hash seed does not match config");
  }
  MutexLock lock(control_mu_);
  // All or nothing: check every record, against the portfolio and against
  // each other, before the first one is subscribed.
  std::set<int> ids = query_ids_;
  for (const core::StoredQuery& q : db.queries) {
    VCD_RETURN_IF_ERROR(core::ValidateQuerySketch(config_, q.sketch, q.length_frames,
                                                  q.duration_seconds));
    if (!ids.insert(q.id).second) {
      return Status::AlreadyExists("query id " + std::to_string(q.id));
    }
  }
  for (const core::StoredQuery& q : db.queries) {
    VCD_RETURN_IF_ERROR(
        AddQuerySketchLocked(q.id, q.sketch, q.length_frames, q.duration_seconds));
  }
  return Status::OK();
}

Status StreamExecutor::RemoveQuery(int id) {
  MutexLock lock(control_mu_);
  if (query_ids_.erase(id) == 0) {
    return Status::NotFound("query id " + std::to_string(id));
  }
  for (auto& shard : shards_) {
    shard->SubmitCommand([id](Shard* s) { s->ApplyRemoveQuery(id); });
  }
  return Status::OK();
}

int StreamExecutor::num_queries() const {
  MutexLock lock(control_mu_);
  return static_cast<int>(query_ids_.size());
}

Result<int> StreamExecutor::OpenStream(std::string name,
                                       qos::Priority priority) {
  MutexLock lock(control_mu_);
  ReapOrphansLocked();
  const int id = next_stream_id_.fetch_add(1, std::memory_order_acq_rel);
  num_open_streams_.fetch_add(1, std::memory_order_relaxed);
  VCD_OBS_SET(metrics_.streams_open,
              num_open_streams_.load(std::memory_order_relaxed));
  shard_for(id)->RegisterStreamQos(id, priority);
  // The shard builds the detector on its own portfolio.
  shard_for(id)->SubmitCommand([id, name = std::move(name)](Shard* s) mutable {
    s->OpenStream(id, std::move(name));
  });
  return id;
}

Status StreamExecutor::CloseStream(int stream_id) {
  MutexLock lock(control_mu_);
  ReapOrphansLocked();
  if (!issued(stream_id)) return Status::NotFound("no such stream");
  const uint64_t close_seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Shard* shard = shard_for(stream_id);
  // The stream stops being a shed-gate citizen the moment the close is
  // issued — even if the close reply is later orphaned on failover, no
  // frame submitted after this point is legitimate.
  shard->UnregisterStreamQos(stream_id);
  auto future = Ask(shard, [stream_id, close_seq](Shard* s) {
    MatchReply reply;
    reply.first = s->FinishStream(stream_id, close_seq, &reply.second);
    return reply;
  });
  if (!WaitOrFailover(future, shard)) {
    // The close command is still queued and will run when the shard drains
    // (commands use the unbounded channel, so a wedged frame queue cannot
    // block it forever). Its reply — with this stream's final matches —
    // is reaped by a later control-plane call.
    orphans_.push_back(Orphan{std::move(future), /*is_close=*/true});
    return Status::Unavailable("stream " + std::to_string(stream_id) +
                               ": shard failed over; close pending");
  }
  MatchReply reply = future.get();
  if (!reply.first.ok()) return reply.first;
  num_open_streams_.fetch_sub(1, std::memory_order_relaxed);
  VCD_OBS_SET(metrics_.streams_open,
              num_open_streams_.load(std::memory_order_relaxed));
  FoldLocked(std::move(reply.second));
  return Status::OK();
}

int StreamExecutor::num_open_streams() const {
  return num_open_streams_.load(std::memory_order_relaxed);
}

Status StreamExecutor::ProcessKeyFrame(int stream_id, vcd::video::DcFrame frame) {
  if (!issued(stream_id)) return Status::NotFound("no such stream");
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  metrics_.frames_submitted_total->Inc();
  qos::Priority shed_priority = qos::Priority::kNormal;
  switch (shard_for(stream_id)->SubmitFrame(seq, stream_id, std::move(frame),
                                            &shed_priority)) {
    case Shard::Submit::kAccepted:
      break;
    case Shard::Submit::kDropped:
      metrics_.dropped_backpressure->Inc();
      break;
    case Shard::Submit::kFailedOver:
      metrics_.dropped_failover->Inc();
      break;
    case Shard::Submit::kDeadline:
      metrics_.dropped_deadline->Inc();
      break;
    case Shard::Submit::kShedded:
      metrics_.dropped_qos_shed->Inc();
      qos_metrics_.frames_shed[static_cast<int>(shed_priority)]->Inc();
      break;
  }
  return Status::OK();
}

Status StreamExecutor::Drain() {
  MutexLock lock(control_mu_);
  ReapOrphansLocked();
  std::vector<std::future<MatchReply>> futures;
  futures.reserve(shards_.size());
  for (auto& shard : shards_) {
    futures.push_back(Ask(shard.get(), [](Shard* s) {
      MatchReply reply;
      reply.first = s->TakeMatches(&reply.second);
      return reply;
    }));
  }
  Status first;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (!WaitOrFailover(futures[i], shards_[i].get())) {
      if (first.ok()) {
        first = Status::Unavailable("shard " + std::to_string(i) +
                                    " failed over; drain incomplete");
      }
      orphans_.push_back(Orphan{std::move(futures[i]), /*is_close=*/false});
      continue;
    }
    MatchReply reply = futures[i].get();
    if (first.ok()) first = reply.first;
    FoldLocked(std::move(reply.second));
  }
  return first;
}

void StreamExecutor::FoldLocked(std::vector<SeqMatch> batch) {
  if (batch.empty()) return;
  merged_.insert(merged_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  // Batches are per-shard FIFO-ordered; a stable sort by submission seq
  // restores global arrival order while keeping same-frame matches in
  // detector emission order.
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const SeqMatch& a, const SeqMatch& b) { return a.seq < b.seq; });
}

std::vector<core::StreamMatch> StreamExecutor::matches() const {
  MutexLock lock(control_mu_);
  std::vector<core::StreamMatch> out;
  out.reserve(merged_.size());
  for (const SeqMatch& m : merged_) out.push_back(m.match);
  return out;
}

template <typename T>
Result<T> StreamExecutor::AskStream(int stream_id, Result<T> (Shard::*query)(int) const) {
  MutexLock lock(control_mu_);
  if (!issued(stream_id)) return Status::NotFound("no such stream");
  Shard* shard = shard_for(stream_id);
  const auto ask = [stream_id, query](Shard* s) { return (s->*query)(stream_id); };
  auto future = Ask(shard, ask);
  if (!WaitOrFailover(future, shard)) {
    return Status::Unavailable("stream " + std::to_string(stream_id) +
                               ": shard failed over");
  }
  return future.get();
}

Result<core::DetectorStats> StreamExecutor::StreamStats(int stream_id) {
  return AskStream(stream_id, &Shard::StatsOf);
}

Result<StreamHealth> StreamExecutor::HealthOf(int stream_id) {
  return AskStream(stream_id, &Shard::HealthOf);
}

Result<ckpt::SnapshotState> StreamExecutor::Checkpoint() {
  MutexLock lock(control_mu_);
  ReapOrphansLocked();
  if (!orphans_.empty()) {
    return Status::Unavailable(
        "checkpoint refused: orphaned shard replies still pending");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->failed()) {
      return Status::Unavailable("checkpoint refused: shard " +
                                 std::to_string(i) + " is failed over");
    }
  }
  // Barrier: one export command per shard. Commands ride the FIFO behind
  // every frame submitted before this call, so by the time a shard answers,
  // its streams are at a window boundary of everything pre-barrier.
  using Export = std::pair<std::vector<core::StreamCkpt>, std::vector<SeqMatch>>;
  std::vector<std::future<Export>> futures;
  futures.reserve(shards_.size());
  for (auto& shard : shards_) {
    futures.push_back(Ask(shard.get(), [](Shard* s) {
      Export reply;
      s->ExportCkpt(&reply.first, &reply.second);
      return reply;
    }));
  }
  ckpt::SnapshotState state;
  ckpt::StampMeta(config_, &state);
  state.next_stream_id = next_stream_id_.load(std::memory_order_acquire);
  state.next_seq = next_seq_.load(std::memory_order_acquire);
  state.matches = merged_;  // copy; the live merged log is not perturbed
  for (size_t i = 0; i < futures.size(); ++i) {
    if (!WaitOrFailover(futures[i], shards_[i].get())) {
      return Status::Unavailable("checkpoint abandoned: shard " +
                                 std::to_string(i) +
                                 " failed over mid-barrier");
    }
    Export reply = futures[i].get();
    for (core::StreamCkpt& s : reply.first) {
      state.streams.push_back(std::move(s));
    }
    state.matches.insert(state.matches.end(),
                         std::make_move_iterator(reply.second.begin()),
                         std::make_move_iterator(reply.second.end()));
  }
  std::stable_sort(
      state.streams.begin(), state.streams.end(),
      [](const core::StreamCkpt& a, const core::StreamCkpt& b) {
        return a.stream_id < b.stream_id;
      });
  std::stable_sort(state.matches.begin(), state.matches.end(),
                   [](const SeqMatch& a, const SeqMatch& b) { return a.seq < b.seq; });
  {
    MutexLock qlock(qos_mu_);
    if (governor_ != nullptr) state.qos = governor_->ExportCkpt();
  }
  return state;
}

Status StreamExecutor::RestoreCkpt(const ckpt::SnapshotState& state) {
  MutexLock lock(control_mu_);
  if (num_open_streams_.load(std::memory_order_relaxed) != 0 ||
      !merged_.empty() || !orphans_.empty()) {
    return Status::FailedPrecondition(
        "RestoreCkpt requires an executor with no open streams or matches");
  }
  VCD_RETURN_IF_ERROR(ckpt::CheckMeta(state, config_));
  if (state.next_stream_id < 1 || state.next_seq < 1) {
    return Status::Corruption("snapshot executor counters out of range");
  }
  std::set<int> seen_ids;
  std::vector<std::vector<core::StreamCkpt>> per_shard(shards_.size());
  for (const core::StreamCkpt& s : state.streams) {
    if (s.stream_id <= 0 || s.stream_id >= state.next_stream_id) {
      return Status::Corruption("snapshot stream id " +
                                std::to_string(s.stream_id) +
                                " outside [1, next_stream_id)");
    }
    if (!seen_ids.insert(s.stream_id).second) {
      return Status::Corruption("duplicate stream id in snapshot");
    }
    if (s.health < 0 || s.health > static_cast<int>(StreamHealth::kFailed)) {
      return Status::Corruption("snapshot stream health out of range");
    }
    if (s.priority < 0 || s.priority > static_cast<int>(qos::Priority::kLow)) {
      return Status::Corruption("snapshot stream priority out of range");
    }
    per_shard[static_cast<size_t>(s.stream_id - 1) % shards_.size()].push_back(s);
  }
  // All or nothing: every home shard builds and restores its streams'
  // detectors on its own portfolio first, and installs them only once every
  // shard has succeeded. The outcome command rides each FIFO behind the
  // staging, so a shard that failed over mid-restore drops its staged
  // streams when it drains.
  std::vector<std::future<Status>> futures;
  futures.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto stage = [slots = std::move(per_shard[i])](Shard* s) mutable {
      return s->StageRestore(std::move(slots));
    };
    futures.push_back(Ask(shards_[i].get(), std::move(stage)));
  }
  Status staged;
  for (size_t i = 0; i < futures.size(); ++i) {
    Status st = WaitOrFailover(futures[i], shards_[i].get())
                    ? futures[i].get()
                    : Status::Unavailable("restore abandoned: shard " +
                                          std::to_string(i) + " failed over");
    if (staged.ok()) staged = std::move(st);
  }
  const bool install = staged.ok();
  for (auto& shard : shards_) {
    shard->SubmitCommand([install](Shard* s) { s->FinishRestore(install); });
  }
  VCD_RETURN_IF_ERROR(staged);
  for (const core::StreamCkpt& s : state.streams) {
    shard_for(s.stream_id)->RegisterStreamQos(
        s.stream_id, static_cast<qos::Priority>(s.priority));
  }
  const int restored = static_cast<int>(state.streams.size());
  next_stream_id_.store(state.next_stream_id, std::memory_order_release);
  next_seq_.store(state.next_seq, std::memory_order_release);
  num_open_streams_.store(restored, std::memory_order_relaxed);
  VCD_OBS_SET(metrics_.streams_open, restored);
  merged_ = state.matches;
  {
    // Resume the governor exactly where the snapshot left it (a restore
    // mid-Degraded stays degraded), and re-apply the consequences: shed
    // gates arm and degrade knobs fan out to the restored detectors.
    MutexLock qlock(qos_mu_);
    if (governor_ != nullptr && !state.qos.empty()) {
      governor_->RestoreCkpt(state.qos);
      for (size_t i = 0; i < shards_.size(); ++i) {
        const qos::QosState qstate = governor_->shard_state(static_cast<int>(i));
        qos_metrics_.shard_state[i]->Set(static_cast<int64_t>(qstate));
        shards_[i]->SetQosState(qstate);
        if (qstate >= qos::QosState::kDegraded) {
          const qos::DegradeKnobs knobs = pconfig_.qos.degrade;
          shards_[i]->SubmitCommand(
              [knobs](Shard* s) { s->ApplyDegrade(knobs); });
        }
      }
    }
  }
  return Status::OK();
}

ExecutorStats StreamExecutor::Stats() {
  MutexLock lock(control_mu_);
  ReapOrphansLocked();
  using Reply = std::pair<ShardStats, core::DetectorStats>;
  std::vector<std::future<Reply>> futures;
  futures.reserve(shards_.size());
  for (auto& shard : shards_) {
    futures.push_back(Ask(shard.get(), [](Shard* s) {
      return Reply{s->Snapshot(), s->AggregateDetectorStats()};
    }));
  }
  ExecutorStats stats;
  stats.frames_submitted = metrics_.frames_submitted_total->Value();
  stats.frames_dropped_backpressure = metrics_.dropped_backpressure->Value();
  stats.frames_dropped_failover = metrics_.dropped_failover->Value();
  stats.frames_dropped_deadline = metrics_.dropped_deadline->Value();
  for (const obs::Counter* c : qos_metrics_.frames_shed) {
    stats.frames_shed += c->Value();
  }
  stats.watchdog_failovers = metrics_.watchdog_failovers_total->Value();
  {
    MutexLock qlock(qos_mu_);
    if (governor_ != nullptr) {
      stats.qos_global_state = static_cast<int>(governor_->global_state());
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    if (!WaitOrFailover(futures[i], shards_[i].get())) {
      // Report the failed shard from its lock-free snapshot; its detector
      // stats are unknown until it drains.
      stats.shards.push_back(shards_[i]->Snapshot());
      stats.shard_detector_stats.emplace_back();
      continue;
    }
    Reply reply = futures[i].get();
    stats.shards.push_back(std::move(reply.first));
    stats.shard_detector_stats.push_back(std::move(reply.second));
  }
  return stats;
}

}  // namespace vcd::parallel
