/// \file vcdctl.cc
/// Command-line front end to the vcdstream library: generate synthetic
/// video, encode/decode/inspect VCDS bit streams, fingerprint, detect shot
/// cuts, build query databases, and run copy detection over stream files.
///
/// Usage:
///   vcdctl generate --seed N --seconds S --out clip.y4m [--fps F --w W --h H]
///   vcdctl encode in.y4m out.vcds [--quantizer Q --gop G --fps F]
///   vcdctl decode in.vcds out.y4m
///   vcdctl info in.vcds
///   vcdctl fingerprint in.vcds [--d D --u U]
///   vcdctl shots in.vcds
///   vcdctl build-queries out.vcdq id1=a.vcds [id2=b.vcds ...] [--k K]
///   vcdctl monitor queries.vcdq stream1.vcds [stream2.vcds ...]
///           [--delta D --window W --threads N --queue C --backpressure block|drop]
///           [--on-corruption skip|quarantine|fail --watchdog-ms N]
///           [--metrics-out FILE --metrics-interval-ms N]
///           [--kernel scalar|popcnt|avx2|avx512|neon]
///           [--checkpoint-dir DIR --checkpoint-interval-ms N --restore]
///           [--throttle-ms N]
///           [--qos --qos-tick-ms N --push-deadline-ms N]
///           [--priority-map IDX=high|normal|low[,...]]
///           [--degrade-policy probe=N]
///   vcdctl metrics [--format=json|prom]
///   vcdctl kernels

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpointer.h"
#include "core/query_store.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "parallel/executor.h"
#include "sketch/kernels/kernels.h"
#include "features/fingerprint.h"
#include "video/codec.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/shot_detector.h"
#include "video/synthetic.h"
#include "video/y4m.h"

using namespace vcd;

namespace {

/// Parsed --key value options plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  static Args Parse(int argc, char** argv, int first) {
    Args a;
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        std::string key = argv[i] + 2;
        std::string value = "1";
        const size_t eq = key.find('=');
        if (eq != std::string::npos) {
          value = key.substr(eq + 1);
          key = key.substr(0, eq);
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          value = argv[++i];
        }
        a.options[key] = value;
      } else {
        a.positional.push_back(argv[i]);
      }
    }
    return a;
  }

  double Num(const std::string& key, double def) const {
    auto it = options.find(key);
    return it == options.end() ? def : std::atof(it->second.c_str());
  }
  std::string Str(const std::string& key, const std::string& def) const {
    auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
};

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(len > 0 ? len : 0));
  const size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (n != bytes.size()) return Status::Internal("short read from " + path);
  return bytes;
}

Status WriteFile(const std::vector<uint8_t>& bytes, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path + " for writing");
  const size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (n != bytes.size()) return Status::Internal("short write to " + path);
  return Status::OK();
}

int CmdGenerate(const Args& a) {
  const std::string out = a.Str("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate requires --out\n");
    return 2;
  }
  const double seconds = a.Num("seconds", 10.0);
  video::SceneModel model = video::SceneModel::Generate(
      static_cast<uint64_t>(a.Num("seed", 1)), seconds + 1.0);
  video::RenderOptions ro;
  ro.width = static_cast<int>(a.Num("w", 352));
  ro.height = static_cast<int>(a.Num("h", 240));
  ro.fps = a.Num("fps", 29.97);
  auto clip = video::RenderVideo(model, 0.0, seconds, ro);
  if (!clip.ok()) return Fail(clip.status());
  if (Status st = video::WriteY4mFile(*clip, out); !st.ok()) return Fail(st);
  std::printf("wrote %zu frames (%dx%d @ %.2f fps) to %s\n", clip->frames.size(),
              ro.width, ro.height, ro.fps, out.c_str());
  return 0;
}

int CmdEncode(const Args& a) {
  if (a.positional.size() != 2) {
    std::fprintf(stderr, "usage: vcdctl encode in.y4m out.vcds\n");
    return 2;
  }
  auto clip = video::ReadY4mFile(a.positional[0]);
  if (!clip.ok()) return Fail(clip.status());
  video::CodecParams p;
  p.width = clip->frames.empty() ? 0 : clip->frames[0].width();
  p.height = clip->frames.empty() ? 0 : clip->frames[0].height();
  p.fps = a.Num("fps", clip->fps);
  p.gop_size = static_cast<int>(a.Num("gop", 12));
  p.quantizer = static_cast<int>(a.Num("quantizer", 4));
  auto bytes = video::Encoder::EncodeVideo(*clip, p);
  if (!bytes.ok()) return Fail(bytes.status());
  if (Status st = WriteFile(*bytes, a.positional[1]); !st.ok()) return Fail(st);
  std::printf("encoded %zu frames -> %.1f KB (%s)\n", clip->frames.size(),
              static_cast<double>(bytes->size()) / 1024.0, a.positional[1].c_str());
  return 0;
}

int CmdDecode(const Args& a) {
  if (a.positional.size() != 2) {
    std::fprintf(stderr, "usage: vcdctl decode in.vcds out.y4m\n");
    return 2;
  }
  auto bytes = ReadFile(a.positional[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto clip = video::Decoder::DecodeVideo(*bytes);
  if (!clip.ok()) return Fail(clip.status());
  if (Status st = video::WriteY4mFile(*clip, a.positional[1]); !st.ok()) {
    return Fail(st);
  }
  std::printf("decoded %zu frames to %s\n", clip->frames.size(),
              a.positional[1].c_str());
  return 0;
}

int CmdInfo(const Args& a) {
  if (a.positional.size() != 1) {
    std::fprintf(stderr, "usage: vcdctl info in.vcds\n");
    return 2;
  }
  auto bytes = ReadFile(a.positional[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  video::PartialDecoder pd;
  if (Status st = pd.Open(bytes->data(), bytes->size()); !st.ok()) return Fail(st);
  const auto& h = pd.header();
  int key_frames = 0;
  video::DcFrame f;
  int64_t last_index = -1;
  while (pd.NextKeyFrame(&f).ok()) {
    ++key_frames;
    last_index = f.frame_index;
  }
  std::printf("%s: %dx%d @ %.3f fps, GOP %d, quantizer %d\n",
              a.positional[0].c_str(), h.width, h.height, h.fps, h.gop_size,
              h.quantizer);
  std::printf("  %.1f KB, %d key frames, ~%lld frames (%.1f s)\n",
              static_cast<double>(bytes->size()) / 1024.0, key_frames,
              static_cast<long long>(last_index + h.gop_size),
              h.fps > 0 ? static_cast<double>(last_index + h.gop_size) / h.fps : 0.0);
  return 0;
}

int CmdFingerprint(const Args& a) {
  if (a.positional.size() != 1) {
    std::fprintf(stderr, "usage: vcdctl fingerprint in.vcds\n");
    return 2;
  }
  auto bytes = ReadFile(a.positional[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto frames = video::PartialDecoder::ExtractAll(*bytes);
  if (!frames.ok()) return Fail(frames.status());
  features::FingerprintOptions opts;
  opts.feature.d = static_cast<int>(a.Num("d", 5));
  opts.u = static_cast<int>(a.Num("u", 4));
  auto fp = features::FrameFingerprinter::Create(opts);
  if (!fp.ok()) return Fail(fp.status());
  for (const auto& frame : *frames) {
    std::printf("%8.2fs  frame %-8lld cell %u\n", frame.timestamp,
                static_cast<long long>(frame.frame_index), fp->Fingerprint(frame));
  }
  return 0;
}

int CmdShots(const Args& a) {
  if (a.positional.size() != 1) {
    std::fprintf(stderr, "usage: vcdctl shots in.vcds\n");
    return 2;
  }
  auto bytes = ReadFile(a.positional[0]);
  if (!bytes.ok()) return Fail(bytes.status());
  auto frames = video::PartialDecoder::ExtractAll(*bytes);
  if (!frames.ok()) return Fail(frames.status());
  auto det = video::ShotDetector::Create();
  if (!det.ok()) return Fail(det.status());
  for (const auto& frame : *frames) det->ProcessKeyFrame(frame);
  det->Finish();
  for (size_t i = 0; i < det->shots().size(); ++i) {
    const auto& s = det->shots()[i];
    std::printf("shot %2zu: %7.2fs - %7.2fs (key frames %lld..%lld)\n", i + 1,
                s.begin_time, s.end_time, static_cast<long long>(s.begin_key_frame),
                static_cast<long long>(s.end_key_frame));
  }
  return 0;
}

int CmdBuildQueries(const Args& a) {
  if (a.positional.size() < 2) {
    std::fprintf(stderr, "usage: vcdctl build-queries out.vcdq id=clip.vcds ...\n");
    return 2;
  }
  core::DetectorConfig config;
  config.K = static_cast<int>(a.Num("k", 800));
  auto det = core::CopyDetector::Create(config);
  if (!det.ok()) return Fail(det.status());
  for (size_t i = 1; i < a.positional.size(); ++i) {
    const std::string& spec = a.positional[i];
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "expected id=path, got %s\n", spec.c_str());
      return 2;
    }
    const int id = std::atoi(spec.substr(0, eq).c_str());
    auto bytes = ReadFile(spec.substr(eq + 1));
    if (!bytes.ok()) return Fail(bytes.status());
    auto frames = video::PartialDecoder::ExtractAll(*bytes);
    if (!frames.ok()) return Fail(frames.status());
    if (Status st = (*det)->AddQuery(id, *frames); !st.ok()) return Fail(st);
  }
  core::QueryDb db;
  db.k = config.K;
  db.hash_seed = config.hash_seed;
  for (auto& [id, len, dur, sk] : (*det)->ExportQueries()) {
    db.queries.push_back(core::StoredQuery{id, len, dur, std::move(sk)});
  }
  if (Status st = core::SaveQueriesFile(db, a.positional[0]); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %zu queries (K=%d) to %s\n", db.queries.size(), db.k,
              a.positional[0].c_str());
  return 0;
}

/// Renders the process-global registry (faultfx gauges synced first) in
/// \p format and writes it to \p path, or to stdout when \p path is empty
/// or "-". The file is rewritten whole on every call, so a periodic dump
/// always leaves a complete document behind.
Status DumpMetrics(const std::string& format, const std::string& path) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::SyncFaultfxMetrics(&reg);
  obs::SyncKernelMetrics(&reg);
  const std::string text =
      format == "prom" ? reg.ToPrometheusText() : reg.ToJson();
  if (path.empty() || path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  const size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (n != text.size()) return Status::Internal("short write to " + path);
  return Status::OK();
}

void MetricsUsage() {
  std::fprintf(stderr, "usage: vcdctl metrics [--format=json|prom]\n");
}

int CmdMetrics(const Args& a) {
  const std::string format = a.Str("format", "json");
  if (format != "json" && format != "prom") {
    std::fprintf(stderr, "error: --format must be json or prom (got %s)\n",
                 format.c_str());
    MetricsUsage();
    return 2;
  }
  if (Status st = DumpMetrics(format, a.Str("out", "")); !st.ok()) {
    return Fail(st);
  }
  return 0;
}

void PrintMatches(const std::vector<core::StreamMatch>& matches) {
  for (const core::StreamMatch& m : matches) {
    std::printf("MATCH query %d on %s at t=[%.1f, %.1f]s sim=%.3f\n",
                m.match.query_id, m.stream_name.c_str(), m.match.start_time,
                m.match.end_time, m.match.similarity);
  }
  std::printf("%zu matches total\n", matches.size());
}

/// Set by SIGTERM/SIGINT: the monitor loop stops intake at the top of the
/// next round-robin cycle, takes a final checkpoint (when a checkpoint dir
/// is configured), flushes metrics and exits 0 — without flushing trailing
/// windows, so a later --restore continues the interrupted streams
/// mid-window.
volatile std::sig_atomic_t g_drain_requested = 0;

void OnDrainSignal(int /*signo*/) { g_drain_requested = 1; }

/// Checkpoint/restore options of `vcdctl monitor` (validated before any
/// file I/O in CmdMonitor).
struct CkptOptions {
  std::string dir;       ///< empty = checkpointing disabled
  int interval_ms = 0;   ///< 0 = only the final/drain checkpoint
  bool restore = false;  ///< resume from the latest snapshot in dir
  int throttle_ms = 0;   ///< per-cycle sleep (crash-recovery harness aid)
};

/// Parses a --priority-map spec `IDX=CLASS[,IDX=CLASS...]`, where IDX is
/// the 1-based position of a stream file on the command line and CLASS is
/// high|normal|low. Files not named default to normal. InvalidArgument on
/// malformed entries, unknown classes, or indices outside [1, num_files].
Status ParsePriorityMap(const std::string& spec, size_t num_files,
                        std::map<size_t, qos::Priority>* out) {
  if (spec.empty()) return Status::OK();
  size_t start = 0;
  for (;;) {
    size_t end = spec.find(',', start);
    const bool last = end == std::string::npos;
    if (last) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("--priority-map entry '" + entry +
                                     "' is not IDX=high|normal|low");
    }
    const std::string idx_str = entry.substr(0, eq);
    const std::string cls = entry.substr(eq + 1);
    char* endp = nullptr;
    const long idx = std::strtol(idx_str.c_str(), &endp, 10);
    if (endp == idx_str.c_str() || *endp != '\0' || idx < 1 ||
        static_cast<size_t>(idx) > num_files) {
      return Status::InvalidArgument(
          "--priority-map index '" + idx_str + "' out of range (1.." +
          std::to_string(num_files) + ")");
    }
    qos::Priority p;
    if (!qos::ParsePriority(cls.c_str(), &p)) {
      return Status::InvalidArgument("--priority-map class '" + cls +
                                     "' must be high, normal or low");
    }
    (*out)[static_cast<size_t>(idx)] = p;
    if (last) break;
    start = end + 1;
  }
  return Status::OK();
}

/// Parses a --degrade-policy spec, a comma list of `probe=N` (combine only
/// every Nth basic window while degraded).
Status ParseDegradePolicy(const std::string& spec, qos::DegradeKnobs* out) {
  if (spec.empty()) return Status::OK();
  size_t start = 0;
  for (;;) {
    size_t end = spec.find(',', start);
    const bool last = end == std::string::npos;
    if (last) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    const size_t eq = entry.find('=');
    if (eq != std::string::npos && eq > 0 && eq + 1 < entry.size()) {
      const std::string key = entry.substr(0, eq);
      const std::string val = entry.substr(eq + 1);
      char* endp = nullptr;
      const long n = std::strtol(val.c_str(), &endp, 10);
      if (endp == val.c_str() || *endp != '\0') {
        return Status::InvalidArgument("--degrade-policy value '" + val +
                                       "' is not an integer");
      }
      if (key == "probe") {
        if (n < 1) {
          return Status::InvalidArgument("--degrade-policy probe must be >= 1");
        }
        out->probe_every_n = static_cast<int>(n);
      } else {
        return Status::InvalidArgument("--degrade-policy key '" + key +
                                       "' is not probe");
      }
    } else {
      return Status::InvalidArgument("--degrade-policy entry '" + entry +
                                     "' is not probe=N");
    }
    if (last) break;
    start = end + 1;
  }
  return Status::OK();
}

/// Builds the governor config from already-validated monitor flags. With
/// --qos but no --degrade-policy, Degraded mode defaults to probing every
/// 2nd window.
qos::QosConfig BuildQosConfig(const Args& a) {
  qos::QosConfig qc;
  qc.enabled = a.options.count("qos") > 0;
  qc.tick_ms = static_cast<int>(a.Num("qos-tick-ms", 50));
  const std::string dp = a.Str("degrade-policy", "");
  if (dp.empty()) {
    qc.degrade.probe_every_n = 2;
  } else {
    (void)ParseDegradePolicy(dp, &qc.degrade);  // validated in CmdMonitor
  }
  return qc;
}

/// Validates a restored snapshot against this invocation: the query db
/// named on the command line and the stream file list must agree with the
/// checkpointed run. (The executor's RestoreCkpt checks the detector
/// parameters.)
Status CheckRestoredState(const ckpt::SnapshotState& state,
                          const core::QueryDb& positional_db,
                          const std::vector<ckpt::DriverFileState>& pos) {
  if (positional_db.k != state.k ||
      positional_db.hash_seed != state.hash_seed) {
    return Status::FailedPrecondition(
        "query db on the command line uses a different hash family than the "
        "snapshot");
  }
  if (state.driver.empty()) {
    return Status::FailedPrecondition(
        "snapshot carries no driver state (not written by vcdctl monitor?)");
  }
  if (state.driver.size() != pos.size()) {
    return Status::FailedPrecondition(
        "snapshot was taken over " + std::to_string(state.driver.size()) +
        " stream files but " + std::to_string(pos.size()) + " were given");
  }
  for (size_t i = 0; i < pos.size(); ++i) {
    if (state.driver[i].path != pos[i].path) {
      return Status::FailedPrecondition(
          "stream file " + std::to_string(i + 1) + " is " + pos[i].path +
          " but the snapshot recorded " + state.driver[i].path);
    }
  }
  return Status::OK();
}

/// Loads the restore snapshot and resumes \p pos at its driver positions.
Result<ckpt::SnapshotState> LoadRestoreState(
    ckpt::Checkpointer* ckpt, const core::QueryDb& positional_db,
    std::vector<ckpt::DriverFileState>* pos) {
  auto state = ckpt->LoadLatest();
  if (!state.ok()) return state.status();
  VCD_RETURN_IF_ERROR(CheckRestoredState(*state, positional_db, *pos));
  *pos = state->driver;
  return state;
}

/// Advances \p pd past the \p n key frames a restored run already consumed.
Status SkipKeyFrames(video::PartialDecoder* pd, int64_t n,
                     const std::string& path) {
  video::DcFrame f;
  for (int64_t i = 0; i < n; ++i) {
    if (Status st = pd->NextKeyFrame(&f); !st.ok()) {
      return Status::FailedPrecondition(
          path + ": ran out of key frames replaying to the checkpoint "
                 "position (file changed since the snapshot?): " +
          st.ToString());
    }
  }
  return Status::OK();
}

/// The `vcdctl monitor` driver: streams are opened on the sharded executor
/// and fed round-robin (the arrival pattern of concurrent live feeds), so
/// different files progress on different worker threads.
///
/// Checkpoints are taken only at the TOP of a round-robin cycle, so every
/// live file has fed the same number of frames and a resumed run repeats
/// the exact submission interleaving (and hence sequence numbering) the
/// uninterrupted run would have used — the property the byte-identical
/// match-output guarantee rests on.
int RunMonitor(const Args& a, const core::DetectorConfig& config,
               const core::QueryDb& db, const std::vector<uint8_t>& db_bytes,
               const CkptOptions& copt, int threads) {
  core::ParallelConfig pc;
  pc.num_threads = threads;
  pc.queue_capacity = static_cast<int>(a.Num("queue", 256));
  // Flag values were validated in CmdMonitor, before any file I/O.
  pc.backpressure = a.Str("backpressure", "block") == "drop"
                        ? core::BackpressurePolicy::kDropNewest
                        : core::BackpressurePolicy::kBlock;
  const std::string oc = a.Str("on-corruption", "skip");
  if (oc == "quarantine") {
    pc.on_corruption = core::CorruptionPolicy::kQuarantine;
  } else if (oc == "fail") {
    pc.on_corruption = core::CorruptionPolicy::kFail;
  } else {
    pc.on_corruption = core::CorruptionPolicy::kSkip;
  }
  pc.watchdog_ms = static_cast<int>(a.Num("watchdog-ms", 0));
  pc.push_deadline_ms = static_cast<int>(a.Num("push-deadline-ms", 0));
  if (a.options.count("qos") > 0) pc.qos = BuildQosConfig(a);
  std::map<size_t, qos::Priority> priority_map;
  if (Status st = ParsePriorityMap(a.Str("priority-map", ""),
                                   a.positional.size() - 1, &priority_map);
      !st.ok()) {
    return Fail(st);  // unreachable: CmdMonitor validated the spec pre-I/O
  }
  // --metrics-out publishes the whole pipeline (decoder, detector, shards,
  // executor) through the process-global registry; without it the executor
  // keeps its own private registry and nothing extra is wired.
  const std::string metrics_out = a.Str("metrics-out", "");
  const int metrics_interval_ms =
      static_cast<int>(a.Num("metrics-interval-ms", 0));
  if (!metrics_out.empty()) pc.metrics = &obs::MetricsRegistry::Global();
  auto exec = parallel::StreamExecutor::Create(config, pc);
  if (!exec.ok()) return Fail(exec.status());

  std::unique_ptr<ckpt::Checkpointer> ckptr;
  if (!copt.dir.empty()) {
    auto c = ckpt::Checkpointer::Open(
        copt.dir, metrics_out.empty() ? nullptr : &obs::MetricsRegistry::Global());
    if (!c.ok()) return Fail(c.status());
    ckptr = std::make_unique<ckpt::Checkpointer>(std::move(*c));
  }

  // One driver position per input file: the DRIVER section a snapshot
  // records, so a restored run resumes the feed loop exactly.
  std::vector<ckpt::DriverFileState> pos;
  for (size_t s = 1; s < a.positional.size(); ++s) {
    pos.push_back(ckpt::DriverFileState{a.positional[s], 0, false, 0});
  }

  if (copt.restore) {
    auto state = LoadRestoreState(ckptr.get(), db, &pos);
    if (!state.ok()) return Fail(state.status());
    auto embedded = core::DeserializeQueries(state->query_db.data(),
                                             state->query_db.size());
    if (!embedded.ok()) return Fail(embedded.status());
    if (Status st = (*exec)->ImportQueries(*embedded); !st.ok()) return Fail(st);
    if (Status st = (*exec)->RestoreCkpt(*state); !st.ok()) return Fail(st);
    std::printf("restored checkpoint epoch %llu (%zu streams, %zu matches)\n",
                static_cast<unsigned long long>(state->epoch),
                state->streams.size(), state->matches.size());
  } else {
    if (Status st = (*exec)->ImportQueries(db); !st.ok()) return Fail(st);
  }
  std::printf("monitoring with %d queries (K=%d, delta=%.2f, w=%.0fs, "
              "%d threads, queue %d, %s, on-corruption %s)\n",
              (*exec)->num_queries(), config.K, config.delta,
              config.window_seconds, (*exec)->num_shards(), pc.queue_capacity,
              core::BackpressurePolicyName(pc.backpressure),
              core::CorruptionPolicyName(pc.on_corruption));

  /// Quiesces the executor and commits one snapshot; failures are logged
  /// and counted, never fatal — a broken disk must not kill detection.
  const auto take_checkpoint = [&]() {
    auto state = (*exec)->Checkpoint();
    if (!state.ok()) {
      std::fprintf(stderr, "warning: checkpoint barrier failed: %s\n",
                   state.status().ToString().c_str());
      return;
    }
    state->query_db = db_bytes;
    state->driver = pos;
    if (Status st = ckptr->Save(*state); !st.ok()) {
      std::fprintf(stderr, "warning: checkpoint save failed: %s\n",
                   st.ToString().c_str());
    }
  };

  std::vector<std::vector<uint8_t>> bytes;       // keeps decoder storage alive
  std::vector<video::PartialDecoder> decoders(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    if (pos[i].done) {
      bytes.emplace_back();
      continue;
    }
    auto b = ReadFile(pos[i].path);
    if (!b.ok()) return Fail(b.status());
    bytes.push_back(std::move(*b));
    // skip/quarantine tolerate corrupt input: the decoder resynchronizes
    // and emits degraded frames instead of failing the whole run.
    decoders[i].set_resync_on_corruption(pc.on_corruption !=
                                         core::CorruptionPolicy::kFail);
    if (!metrics_out.empty()) {
      decoders[i].set_metrics(&obs::MetricsRegistry::Global());
    }
    if (Status st = decoders[i].Open(bytes.back().data(), bytes.back().size());
        !st.ok()) {
      return Fail(st);
    }
    if (pos[i].stream_id > 0) {
      // Restored stream: replay the decoder to the checkpointed position.
      if (Status st = SkipKeyFrames(&decoders[i], pos[i].frames_fed, pos[i].path);
          !st.ok()) {
        return Fail(st);
      }
    } else {
      auto prio = priority_map.find(i + 1);  // --priority-map is 1-based
      auto sid = (*exec)->OpenStream(pos[i].path,
                                     prio != priority_map.end()
                                         ? prio->second
                                         : qos::Priority::kNormal);
      if (!sid.ok()) return Fail(sid.status());
      pos[i].stream_id = *sid;
    }
  }
  bool any = true;
  video::DcFrame f;
  const int64_t interval_ns = static_cast<int64_t>(metrics_interval_ms) * 1000000;
  int64_t next_dump_ns = interval_ns > 0 ? obs::NowNanos() + interval_ns : 0;
  const int64_t ckpt_interval_ns =
      static_cast<int64_t>(copt.interval_ms) * 1000000;
  int64_t next_ckpt_ns =
      (ckptr != nullptr && ckpt_interval_ns > 0) ? obs::NowNanos() + ckpt_interval_ns
                                                 : 0;
  while (any) {
    // Cycle top: every live file has fed the same number of frames — the
    // only point where a snapshot resumes with an identical interleaving.
    if (g_drain_requested) {
      if (ckptr != nullptr) take_checkpoint();
      if (!metrics_out.empty()) {
        if (Status st = DumpMetrics("json", metrics_out); !st.ok()) {
          return Fail(st);
        }
      }
      std::printf("drain requested; stopped intake%s\n",
                  ckptr != nullptr ? " after final checkpoint" : "");
      return 0;
    }
    if (next_ckpt_ns > 0 && obs::NowNanos() >= next_ckpt_ns) {
      take_checkpoint();
      next_ckpt_ns = obs::NowNanos() + ckpt_interval_ns;
    }
    any = false;
    for (size_t i = 0; i < decoders.size(); ++i) {
      if (pos[i].done) continue;
      if (Status st = decoders[i].NextKeyFrame(&f); !st.ok()) {
        if (st.code() != StatusCode::kNotFound) {
          std::fprintf(stderr, "warning: %s: %s; stream stopped\n",
                       pos[i].path.c_str(), st.ToString().c_str());
        }
        pos[i].done = true;
        continue;
      }
      any = true;
      if (Status st = (*exec)->ProcessKeyFrame(pos[i].stream_id, std::move(f));
          !st.ok()) {
        return Fail(st);
      }
      ++pos[i].frames_fed;
    }
    if (copt.throttle_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(copt.throttle_ms));
    }
    if (interval_ns > 0 && obs::NowNanos() >= next_dump_ns) {
      if (Status st = DumpMetrics("json", metrics_out); !st.ok()) return Fail(st);
      next_dump_ns = obs::NowNanos() + interval_ns;
    }
  }
  for (ckpt::DriverFileState& p : pos) {
    if (p.stream_id <= 0) continue;
    if (Status st = (*exec)->CloseStream(p.stream_id); !st.ok()) return Fail(st);
    p.stream_id = 0;
  }
  if (Status st = (*exec)->Drain(); !st.ok()) return Fail(st);
  // Final checkpoint after the close/drain so a restored run of a finished
  // job reports the complete match log instead of re-feeding anything.
  if (ckptr != nullptr) take_checkpoint();
  // Final dump so the file reflects the fully drained run even when the
  // feed finished between two periodic intervals (or none was requested).
  if (!metrics_out.empty()) {
    if (Status st = DumpMetrics("json", metrics_out); !st.ok()) return Fail(st);
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  PrintMatches((*exec)->matches());
  const parallel::ExecutorStats stats = (*exec)->Stats();
  int64_t degraded = 0, quarantined = 0, quarantine_events = 0;
  for (const auto& sh : stats.shards) {
    std::printf("shard %d: %lld frames, busy %.3fs, queue high-water %zu\n",
                sh.shard_id, static_cast<long long>(sh.frames_processed),
                sh.busy_seconds, sh.queue_high_water);
    degraded += sh.frames_degraded;
    quarantined += sh.frames_quarantined;
    quarantine_events += sh.quarantine_events;
  }
  if (stats.frames_dropped_backpressure > 0) {
    std::printf("%lld frames dropped by backpressure\n",
                static_cast<long long>(stats.frames_dropped_backpressure));
  }
  if (stats.frames_dropped_failover > 0) {
    std::printf("%lld frames dropped by shard failover\n",
                static_cast<long long>(stats.frames_dropped_failover));
  }
  if (stats.frames_dropped_deadline > 0) {
    std::printf("%lld frames dropped on the push deadline\n",
                static_cast<long long>(stats.frames_dropped_deadline));
  }
  if (stats.frames_shed > 0) {
    std::printf("%lld frames shed by the qos governor\n",
                static_cast<long long>(stats.frames_shed));
  }
  if (degraded > 0) {
    std::printf("%lld frames processed degraded\n",
                static_cast<long long>(degraded));
  }
  if (quarantine_events > 0) {
    std::printf("%lld frames discarded over %lld quarantine events\n",
                static_cast<long long>(quarantined),
                static_cast<long long>(quarantine_events));
  }
  return 0;
}

/// Lists every kernel ISA level with its compiled/supported state and marks
/// the level dispatch would pick (or was forced to via VCD_KERNEL_ISA).
int CmdKernels(const Args&) {
  namespace sk = sketch::kernels;
  const sk::KernelOps& active = sk::ActiveOps();
  std::printf("%-8s %-9s %-10s %s\n", "isa", "compiled", "supported",
              "active");
  for (int i = 0; i < sk::kNumIsa; ++i) {
    const auto isa = static_cast<sk::Isa>(i);
    std::printf("%-8s %-9s %-10s %s\n", sk::IsaName(isa),
                sk::IsaCompiled(isa) ? "yes" : "no",
                sk::IsaSupported(isa) ? "yes" : "no",
                isa == active.isa ? "*" : "");
  }
  return 0;
}

void MonitorUsage() {
  std::fprintf(stderr,
               "usage: vcdctl monitor queries.vcdq stream.vcds ... "
               "[--delta D --window W --threads N --queue C "
               "--backpressure block|drop "
               "--on-corruption skip|quarantine|fail --watchdog-ms N "
               "--metrics-out FILE --metrics-interval-ms N "
               "--kernel scalar|popcnt|avx2|avx512|neon "
               "--checkpoint-dir DIR --checkpoint-interval-ms N --restore "
               "--throttle-ms N "
               "--qos --qos-tick-ms N --push-deadline-ms N "
               "--priority-map IDX=high|normal|low[,...] "
               "--degrade-policy probe=N]\n");
}

int CmdMonitor(const Args& a) {
  if (a.positional.size() < 2) {
    MonitorUsage();
    return 2;
  }
  // All flag validation happens before any file I/O, so a bad invocation
  // fails fast with a usage message instead of a missing-file error.
  // 0 = one worker per hardware thread (ParallelConfig::num_threads).
  const int threads = static_cast<int>(a.Num("threads", 1));
  if (threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0 (got %d)\n", threads);
    MonitorUsage();
    return 2;
  }
  const int queue = static_cast<int>(a.Num("queue", 256));
  if (queue < 1) {
    std::fprintf(stderr, "error: --queue must be >= 1 (got %d)\n", queue);
    MonitorUsage();
    return 2;
  }
  const std::string bp = a.Str("backpressure", "block");
  if (bp != "block" && bp != "drop") {
    std::fprintf(stderr, "error: --backpressure must be block or drop (got %s)\n",
                 bp.c_str());
    MonitorUsage();
    return 2;
  }
  const std::string oc = a.Str("on-corruption", "skip");
  if (oc != "skip" && oc != "quarantine" && oc != "fail") {
    std::fprintf(stderr,
                 "error: --on-corruption must be skip, quarantine or fail "
                 "(got %s)\n",
                 oc.c_str());
    MonitorUsage();
    return 2;
  }
  const int watchdog_ms = static_cast<int>(a.Num("watchdog-ms", 0));
  if (watchdog_ms < 0) {
    std::fprintf(stderr, "error: --watchdog-ms must be >= 0 (got %d)\n",
                 watchdog_ms);
    MonitorUsage();
    return 2;
  }
  const std::string metrics_out = a.Str("metrics-out", "");
  const int metrics_interval_ms =
      static_cast<int>(a.Num("metrics-interval-ms", 0));
  if (metrics_interval_ms < 0) {
    std::fprintf(stderr, "error: --metrics-interval-ms must be >= 0 (got %d)\n",
                 metrics_interval_ms);
    MonitorUsage();
    return 2;
  }
  if (metrics_interval_ms > 0 && metrics_out.empty()) {
    std::fprintf(stderr,
                 "error: --metrics-interval-ms requires --metrics-out\n");
    MonitorUsage();
    return 2;
  }
  const std::string kernel = a.Str("kernel", "");
  if (!kernel.empty()) {
    // ForceIsa rejects unknown names and levels this CPU/build can't run;
    // validated here so a typo'd --kernel exits with usage, not a crash or
    // a silent fallback after files were already opened.
    if (Status st = sketch::kernels::ForceIsa(kernel); !st.ok()) {
      std::fprintf(stderr, "error: --kernel: %s\n", st.ToString().c_str());
      MonitorUsage();
      return 2;
    }
  }
  CkptOptions copt;
  copt.dir = a.Str("checkpoint-dir", "");
  copt.interval_ms = static_cast<int>(a.Num("checkpoint-interval-ms", 0));
  copt.restore = a.options.count("restore") > 0;
  copt.throttle_ms = static_cast<int>(a.Num("throttle-ms", 0));
  if (copt.interval_ms < 0) {
    std::fprintf(stderr, "error: --checkpoint-interval-ms must be >= 0 (got %d)\n",
                 copt.interval_ms);
    MonitorUsage();
    return 2;
  }
  if (copt.interval_ms > 0 && copt.dir.empty()) {
    std::fprintf(stderr,
                 "error: --checkpoint-interval-ms requires --checkpoint-dir\n");
    MonitorUsage();
    return 2;
  }
  if (copt.restore && copt.dir.empty()) {
    std::fprintf(stderr, "error: --restore requires --checkpoint-dir\n");
    MonitorUsage();
    return 2;
  }
  if (copt.throttle_ms < 0) {
    std::fprintf(stderr, "error: --throttle-ms must be >= 0 (got %d)\n",
                 copt.throttle_ms);
    MonitorUsage();
    return 2;
  }
  const bool qos_on = a.options.count("qos") > 0;
  const int push_deadline_ms = static_cast<int>(a.Num("push-deadline-ms", 0));
  if (push_deadline_ms < 0) {
    std::fprintf(stderr, "error: --push-deadline-ms must be >= 0 (got %d)\n",
                 push_deadline_ms);
    MonitorUsage();
    return 2;
  }
  if (!qos_on && (a.options.count("qos-tick-ms") > 0 ||
                  a.options.count("priority-map") > 0 ||
                  a.options.count("degrade-policy") > 0)) {
    std::fprintf(stderr,
                 "error: --qos-tick-ms/--priority-map/--degrade-policy "
                 "require --qos\n");
    MonitorUsage();
    return 2;
  }
  if (qos_on) {
    std::map<size_t, qos::Priority> pmap;
    if (Status st = ParsePriorityMap(a.Str("priority-map", ""),
                                     a.positional.size() - 1, &pmap);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      MonitorUsage();
      return 2;
    }
    qos::DegradeKnobs knobs;
    if (Status st = ParseDegradePolicy(a.Str("degrade-policy", ""), &knobs);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      MonitorUsage();
      return 2;
    }
    if (Status st = BuildQosConfig(a).Validate(); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      MonitorUsage();
      return 2;
    }
  }
  auto db = core::LoadQueriesFile(a.positional[0]);
  if (!db.ok()) return Fail(db.status());
  // The raw query-db bytes are embedded in every snapshot so a restore
  // re-imports byte-identical sketches regardless of later edits to the
  // .vcdq named on the resumed command line.
  auto db_bytes = ReadFile(a.positional[0]);
  if (!db_bytes.ok()) return Fail(db_bytes.status());
  core::DetectorConfig config;
  config.K = db->k;
  config.hash_seed = db->hash_seed;
  config.delta = a.Num("delta", 0.7);
  config.window_seconds = a.Num("window", 5.0);
  std::signal(SIGINT, OnDrainSignal);
  std::signal(SIGTERM, OnDrainSignal);
  return RunMonitor(a, config, *db, *db_bytes, copt, threads);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: vcdctl <generate|encode|decode|info|fingerprint|shots|"
                 "build-queries|monitor|metrics|kernels> ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "encode") return CmdEncode(args);
  if (cmd == "decode") return CmdDecode(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "fingerprint") return CmdFingerprint(args);
  if (cmd == "shots") return CmdShots(args);
  if (cmd == "build-queries") return CmdBuildQueries(args);
  if (cmd == "monitor") return CmdMonitor(args);
  if (cmd == "metrics") return CmdMetrics(args);
  if (cmd == "kernels") return CmdKernels(args);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
