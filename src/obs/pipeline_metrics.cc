#include "obs/pipeline_metrics.h"

#include <atomic>

#include "sketch/kernels/kernels.h"
#include "util/faultfx.h"

namespace vcd::obs {

DecoderMetrics DecoderMetrics::Create(MetricsRegistry* registry) {
  DecoderMetrics m;
  if (registry == nullptr) return m;
  m.key_frames_total = registry->RegisterCounter(
      "vcd_decoder_key_frames_total", "Key frames decoded");
  m.p_frames_skipped_total = registry->RegisterCounter(
      "vcd_decoder_p_frames_skipped_total", "Non-key frames skipped");
  m.corruption_events_total = registry->RegisterCounter(
      "vcd_decoder_corruption_events_total", "Corrupt frame headers seen");
  m.resync_scans_total = registry->RegisterCounter(
      "vcd_decoder_resync_scans_total", "Resync scans after corruption");
  m.bytes_skipped_total = registry->RegisterCounter(
      "vcd_decoder_bytes_skipped_total", "Bytes skipped while resyncing");
  m.degraded_frames_total = registry->RegisterCounter(
      "vcd_decoder_degraded_frames_total",
      "Frames emitted in degraded mode after corruption");
  m.resync_latency_ns = registry->RegisterHistogram(
      "vcd_decoder_resync_latency_ns", "Latency of one resync scan");
  return m;
}

DetectorMetrics DetectorMetrics::Create(MetricsRegistry* registry) {
  DetectorMetrics m;
  if (registry == nullptr) return m;
  m.windows_total = registry->RegisterCounter(
      "vcd_detector_windows_total", "Sliding windows processed");
  m.degraded_windows_total = registry->RegisterCounter(
      "vcd_detector_degraded_windows_total",
      "Windows skipped because they contained degraded frames");
  m.qos_skipped_windows_total = registry->RegisterCounter(
      "vcd_detector_qos_skipped_windows_total",
      "Windows skipped by the QoS degraded-mode probe knob");
  m.prune_hits_total = registry->RegisterCounter(
      "vcd_detector_prune_hits_total",
      "Candidate windows eliminated by Lemma-2 prefix pruning");
  m.prune_misses_total = registry->RegisterCounter(
      "vcd_detector_prune_misses_total",
      "Candidate windows that survived pruning and were fully evaluated");
  m.bitsig_builds_total = registry->RegisterCounter(
      "vcd_detector_bitsig_builds_total", "Bit signatures built from scratch");
  m.bitsig_ors_total = registry->RegisterCounter(
      "vcd_detector_bitsig_ors_total", "Incremental bit-signature OR-combines");
  m.sketch_combines_total = registry->RegisterCounter(
      "vcd_detector_sketch_combines_total", "Sketch combine operations");
  m.sketch_compares_total = registry->RegisterCounter(
      "vcd_detector_sketch_compares_total", "Sketch similarity comparisons");
  m.candidates_admitted_total = registry->RegisterCounter(
      "vcd_detector_candidates_admitted_total",
      "Windows admitted into candidate evaluation");
  m.candidates_expired_total = registry->RegisterCounter(
      "vcd_detector_candidates_expired_total",
      "Candidate entries retired as their windows slid out of range");
  m.matches_total = registry->RegisterCounter(
      "vcd_detector_matches_total", "Copy matches emitted");
  m.window_process_ns = registry->RegisterHistogram(
      "vcd_window_process_ns", "End-to-end latency of one window update");
  m.sketch_build_ns = registry->RegisterHistogram(
      "vcd_window_sketch_build_ns", "Building the window's sketch/signature");
  m.probe_ns = registry->RegisterHistogram(
      "vcd_window_probe_ns", "Index probes admitting candidate suffixes");
  m.combine_ns = registry->RegisterHistogram(
      "vcd_window_combine_ns", "OR-combine / sketch-combine step");
  m.test_ns = registry->RegisterHistogram(
      "vcd_window_test_ns", "Similarity tests of the live candidates");
  return m;
}

namespace {
/// The unified drop family: one counter name, labeled by why the frame was
/// discarded. Registration is idempotent, so every bundle that needs a leg
/// gets the same instrument back.
Counter* DropCause(MetricsRegistry* registry, const char* cause) {
  return registry->RegisterCounter(
      "vcd_frames_dropped_total",
      "Frames discarded by the pipeline, labeled by cause",
      {{"cause", cause}});
}
}  // namespace

ExecutorMetrics ExecutorMetrics::Create(MetricsRegistry* registry) {
  ExecutorMetrics m;
  if (registry == nullptr) return m;
  m.frames_submitted_total = registry->RegisterCounter(
      "vcd_executor_frames_submitted_total", "Frames submitted to shards");
  m.dropped_backpressure = DropCause(registry, "backpressure");
  m.dropped_failover = DropCause(registry, "failover");
  m.dropped_deadline = DropCause(registry, "deadline");
  m.dropped_qos_shed = DropCause(registry, "qos_shed");
  m.watchdog_failovers_total = registry->RegisterCounter(
      "vcd_executor_watchdog_failovers_total",
      "Shards failed over by the watchdog");
  m.streams_open = registry->RegisterGauge(
      "vcd_executor_streams_open", "Streams currently open on the executor");
  return m;
}

ShardMetrics ShardMetrics::Create(MetricsRegistry* registry, int shard_id) {
  ShardMetrics m;
  if (registry == nullptr) return m;
  const std::vector<MetricLabel> labels = {
      {"shard", std::to_string(shard_id)}};
  m.frames_processed_total = registry->RegisterCounter(
      "vcd_shard_frames_processed_total", "Frames processed cleanly", labels);
  m.frames_rejected_total = registry->RegisterCounter(
      "vcd_shard_frames_rejected_total",
      "Frames for a stream that is closed or was never opened", labels);
  m.frames_degraded_total = registry->RegisterCounter(
      "vcd_shard_frames_degraded_total", "Degraded frames processed", labels);
  m.frames_quarantined_total = registry->RegisterCounter(
      "vcd_shard_frames_quarantined_total",
      "Frames discarded because their stream was quarantined", labels);
  m.frames_failed_total = registry->RegisterCounter(
      "vcd_shard_frames_failed_total",
      "Frames discarded because their stream had hard-failed", labels);
  m.quarantine_events_total = registry->RegisterCounter(
      "vcd_shard_quarantine_events_total",
      "Streams entering quarantine on this shard", labels);
  m.queue_depth = registry->RegisterGauge(
      "vcd_shard_queue_depth", "Frames waiting in the shard queue", labels);
  m.stream_lag_us = registry->RegisterGauge(
      "vcd_shard_stream_lag_us",
      "Stream-clock lag of the frame being processed, microseconds", labels);
  m.dropped_quarantine = DropCause(registry, "quarantine");
  m.dropped_failed = DropCause(registry, "failed");
  return m;
}

QosMetrics QosMetrics::Create(MetricsRegistry* registry, int num_shards) {
  QosMetrics m;
  if (registry == nullptr) return m;
  m.shard_state.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    m.shard_state.push_back(registry->RegisterGauge(
        "vcd_qos_state",
        "Overload governor state (0 normal, 1 recovering, 2 degraded, "
        "3 shedding)",
        {{"shard", std::to_string(s)}}));
  }
  for (int i = 0; i < 4; ++i) {
    // Governor ticks are the native unit here — a time suffix would lie
    // when --qos-tick-ms changes.
    m.dwell_ticks[i] = registry->RegisterHistogram(  // NOLINT(vcd-obs-naming)
        "vcd_qos_dwell_ticks",
        "Governor ticks a shard dwelt in a state before leaving it",
        {{"state", qos::QosStateName(static_cast<qos::QosState>(i))}});
  }
  for (int i = 0; i < 3; ++i) {
    m.frames_shed[i] = registry->RegisterCounter(
        "vcd_qos_frames_shed_total",
        "Frames shed by the priority-aware overload policy",
        {{"priority", qos::PriorityName(static_cast<qos::Priority>(i))}});
  }
  return m;
}

CkptMetrics CkptMetrics::Create(MetricsRegistry* registry) {
  CkptMetrics m;
  if (registry == nullptr) return m;
  m.checkpoints_total = registry->RegisterCounter(
      "vcd_ckpt_checkpoints_total", "Snapshots durably committed");
  m.checkpoint_failures_total = registry->RegisterCounter(
      "vcd_ckpt_checkpoint_failures_total",
      "Snapshot writes that failed before the manifest was updated");
  m.restores_total = registry->RegisterCounter(
      "vcd_ckpt_restores_total", "Successful snapshot restores");
  m.restore_corruption_total = registry->RegisterCounter(
      "vcd_ckpt_restore_corruption_total",
      "Snapshots skipped at restore as torn or CRC-corrupt");
  m.checkpoint_bytes = registry->RegisterGauge(
      "vcd_ckpt_checkpoint_bytes", "Size of the last snapshot written");
  m.checkpoint_epoch = registry->RegisterGauge(
      "vcd_ckpt_checkpoint_epoch", "Epoch of the last snapshot committed");
  m.checkpoint_duration_ns = registry->RegisterHistogram(
      "vcd_ckpt_checkpoint_duration_ns",
      "Wall time of one checkpoint save (encode + write + rename)");
  return m;
}

void SyncFaultfxMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (int i = 0; i < faultfx::kNumSites; ++i) {
    const auto site = static_cast<faultfx::Site>(i);
    const std::vector<MetricLabel> labels = {
        {"site", faultfx::SiteName(site)}};
    Gauge* hits = registry->RegisterGauge(
        "vcd_faultfx_hits", "Injection-site hits since last arm/reset",
        labels);
    Gauge* fires = registry->RegisterGauge(
        "vcd_faultfx_fires", "Injection-site fires since last arm/reset",
        labels);
    if (faultfx::kEnabled) {
      hits->Set(faultfx::Injector::Instance().hits(site));
      fires->Set(faultfx::Injector::Instance().fires(site));
    }
  }
}

void SyncKernelMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  namespace sk = vcd::sketch::kernels;
  const sk::KernelOps& active = sk::ActiveOps();
  for (int i = 0; i < sk::kNumIsa; ++i) {
    const auto isa = static_cast<sk::Isa>(i);
    if (!sk::IsaCompiled(isa)) continue;
    Gauge* g = registry->RegisterGauge(
        "vcd_kernel_active", "1 on the dispatched kernel ISA level",
        {{"isa", sk::IsaName(isa)}});
    g->Set(isa == active.isa ? 1 : 0);
  }
  const sk::KernelCounters& c = sk::Counters();
  const auto sync = [registry](const char* kernel, uint64_t calls,
                               uint64_t items) {
    const std::vector<MetricLabel> labels = {{"kernel", kernel}};
    registry
        ->RegisterGauge("vcd_kernel_calls",
                        "Kernel dispatches since process start", labels)
        ->Set(static_cast<int64_t>(calls));
    registry
        ->RegisterGauge("vcd_kernel_items",
                        "Slots/pairs processed by the kernel", labels)
        ->Set(static_cast<int64_t>(items));
  };
  const auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  sync("sig_or_range", load(c.or_range_calls), load(c.or_range_pairs));
  sync("sig_num_equal_batch", load(c.num_equal_batch_calls),
       load(c.num_equal_batch_sigs));
  sync("sig_build", load(c.build_calls), load(c.build_calls));
  sync("sketch_combine_min", load(c.combine_min_calls),
       load(c.combine_min_calls));
  sync("sketch_num_equal", load(c.sketch_num_equal_calls),
       load(c.sketch_num_equal_calls));
}

}  // namespace vcd::obs
