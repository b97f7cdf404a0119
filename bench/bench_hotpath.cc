/// \file bench_hotpath.cc
/// End-to-end per-window hot-path benchmark: windows/second and heap
/// allocations/window of the detector's window step (flat arenas + batched
/// slab kernels), over {Sequential, Geometric} × {Bit, Sketch} at
/// K ∈ {16, 64, 256}. Each configuration runs twice, with alternating
/// measured reps: once on the scalar kernel ISA and once on the dispatched
/// ISA (the widest the CPU supports, or the one VCD_KERNEL_ISA names), so
/// the ratio of the two measures the kernels on the same code path and
/// host.
///
/// The workload is a no-index, low-δ configuration with 40 subscribed
/// queries, which keeps every query's state alive in every candidate —
/// the densest steady-state combination load (≈ Q·⌈λL/w⌉ signatures per
/// window) — so the numbers isolate combination/test kernel cost rather
/// than match emission. Allocations are counted by a global operator
/// new/delete hook; every run must report 0 per steady-state window. One
/// more, untimed, index-on Sequential-Bit run holds the index path to the
/// same allocation contract (MeasureIndexPathAllocsPerWindow).
///
/// Flags: --quick (short measurement, for CI smoke), --json=PATH (machine
/// readable output via BenchJsonWriter), --metrics-json=PATH (a sample
/// observability snapshot from a short metrics-attached run — the measured
/// runs themselves stay metrics-detached so the numbers are unperturbed).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ckpt/snapshot.h"
#include "ckpt/state_codec.h"
#include "core/detector.h"
#include "parallel/executor.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "sketch/kernels/kernels.h"
#include "util/logging.h"
#include "util/rng.h"

// --- counting allocator hook ------------------------------------------------
// Counts every global heap allocation in the process. Relaxed ordering: the
// bench is single-threaded; the counter only needs to be exact between the
// snapshot points.

namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace vcd;
using features::CellId;

constexpr double kKeyFps = 2.5;     // key-frame slots per second
constexpr int kSlotsPerWindow = 10; // window_seconds 4.0 at 2.5 slots/s
constexpr int kNumQueries = 40;
// 48 s per query → ⌈λL/w⌉ = 24 live windows per candidate chain. Long-lived
// candidates make merge/test work dominate over (path-independent) signature
// builds, as with the paper's minutes-long queries.
constexpr int kQueryCells = 240;
constexpr double kQuerySeconds = 96.0;

struct RunSpec {
  core::Representation rep;
  core::CombinationOrder order;
  int K;
};

struct RunResult {
  double windows_per_sec = 0.0;
  double allocs_per_window = 0.0;
  int64_t windows = 0;
  double sigs_per_window = 0.0;
};

std::vector<CellId> RandomIds(Rng* rng, size_t n, uint32_t lo, uint32_t hi) {
  std::vector<CellId> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<CellId>(rng->Uniform(hi - lo)));
  }
  return out;
}

/// Measures one configuration once per kernel ISA in \p isas. Each ISA gets
/// its own detector (pools capture the kernel table at construction), and
/// the measured reps alternate between them, so a slow host phase hits
/// every ISA alike instead of skewing the ratio between them.
std::vector<RunResult> RunConfig(const RunSpec& spec,
                                 const std::vector<std::string>& isas,
                                 const std::vector<CellId>& stream,
                                 const std::vector<std::vector<CellId>>& queries,
                                 int warm_windows, int meas_windows, int reps) {
  core::DetectorConfig c;
  c.K = spec.K;
  c.window_seconds = 4.0;
  // Stream content is disjoint from query content, so no window ever
  // matches, and δ is low enough that the Lemma-2 threshold (NumLess >
  // K(1−δ)) almost never fires on unrelated content: every build and OR
  // checks it but candidate state stays near-maximal and constant, so
  // the pooled arenas reach their high-water mark during warmup and the
  // measured phase is allocation-free. (At K=16 the threshold needs all 16
  // relations to be "less" — P≈2⁻¹⁶ per signature test — so rare prunes DO
  // fire mid-measurement; the detector pre-reserves its merge scratch at
  // subscription time precisely so that event allocates nothing.)
  c.delta = 0.05;
  c.lambda = 2.0;
  c.representation = spec.rep;
  c.order = spec.order;
  c.use_index = false;
  c.enable_pruning = true;

  struct Arm {
    std::unique_ptr<core::CopyDetector> det;
    int64_t slot = 0;
    double best_secs = 0.0;
    RunResult r;
  };
  const auto feed = [&](Arm& arm, int64_t n_slots) {
    const int64_t end = arm.slot + n_slots;
    for (; arm.slot < end; ++arm.slot) {
      VCD_CHECK(arm.det->ProcessFingerprint(
                       arm.slot * 12, static_cast<double>(arm.slot) / kKeyFps,
                       stream[static_cast<size_t>(arm.slot) % stream.size()])
                    .ok(),
                "feed");
    }
  };

  std::vector<Arm> arms(isas.size());
  for (size_t a = 0; a < isas.size(); ++a) {
    VCD_CHECK(sketch::kernels::ForceIsa(isas[a]).ok(), "force kernel ISA");
    arms[a].det = core::CopyDetector::Create(c).value();
    for (size_t q = 0; q < queries.size(); ++q) {
      VCD_CHECK(arms[a].det->AddQueryCells(static_cast<int>(q) + 1, queries[q],
                                           kQuerySeconds)
                    .ok(),
                "add query");
    }
    feed(arms[a], static_cast<int64_t>(warm_windows) * kSlotsPerWindow);
  }

  // Best-of-reps on time (shields against external machine noise); worst-of
  // on allocations (a single stray allocation in any rep must show).
  for (int rep = 0; rep < reps; ++rep) {
    for (Arm& arm : arms) {
      const int64_t windows_before = arm.det->stats().windows;
      const int64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
      const auto t0 = std::chrono::steady_clock::now();
      feed(arm, static_cast<int64_t>(meas_windows) * kSlotsPerWindow);
      const auto t1 = std::chrono::steady_clock::now();
      const int64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
      const int64_t windows = arm.det->stats().windows - windows_before;
      VCD_CHECK(windows > 0, "no windows measured");
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      const double apw = static_cast<double>(allocs_after - allocs_before) /
                         static_cast<double>(windows);
      if (rep == 0 || secs < arm.best_secs) {
        arm.best_secs = secs;
        arm.r.windows = windows;
        arm.r.windows_per_sec = static_cast<double>(windows) / secs;
      }
      if (apw > arm.r.allocs_per_window) arm.r.allocs_per_window = apw;
    }
  }
  std::vector<RunResult> out;
  for (Arm& arm : arms) {
    arm.r.sigs_per_window = arm.det->stats().signatures_per_window.mean();
    out.push_back(arm.r);
  }
  return out;
}

/// Runs a short Sequential-Bit K=64 pass with a private registry
/// attached to the detector and writes the registry's JSON document to
/// \p path. Used by CI to archive a sample observability snapshot; kept
/// separate from the measured runs so attaching the registry can never
/// perturb the benchmark numbers or the 0-alloc contract.
bool WriteMetricsSample(const std::string& path,
                        const std::vector<CellId>& stream,
                        const std::vector<std::vector<CellId>>& queries) {
  obs::MetricsRegistry registry;
  core::DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.05;
  c.lambda = 2.0;
  c.representation = core::Representation::kBit;
  c.order = core::CombinationOrder::kSequential;
  c.use_index = false;
  c.enable_pruning = true;
  c.metrics = &registry;
  auto det = core::CopyDetector::Create(c).value();
  for (size_t q = 0; q < queries.size(); ++q) {
    VCD_CHECK(det->AddQueryCells(static_cast<int>(q) + 1, queries[q],
                                 kQuerySeconds)
                  .ok(),
              "add query");
  }
  constexpr int64_t kSampleSlots = 40 * kSlotsPerWindow;
  for (int64_t slot = 0; slot < kSampleSlots; ++slot) {
    VCD_CHECK(det->ProcessFingerprint(
                     slot * 12, static_cast<double>(slot) / kKeyFps,
                     stream[static_cast<size_t>(slot) % stream.size()])
                  .ok(),
              "feed");
  }
  VCD_CHECK(det->Finish().ok(), "finish");
  obs::SyncKernelMetrics(&registry);

  const std::string doc = registry.ToJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return (std::fclose(f) == 0) && ok;
}

/// Measures the intake pause a checkpoint barrier imposes at steady state:
/// exporting the detector's full candidate/window state and encoding the
/// snapshot container (sections + CRCs). Disk I/O is deliberately excluded —
/// it varies with the filesystem, while export+encode is the CPU cost every
/// checkpoint pays with intake stopped. Returns the best-of-\p reps pause in
/// milliseconds for a warmed-up Sequential-Bit K=64 detector — the same
/// configuration the headline speedup row uses.
double MeasureCheckpointPauseMs(const std::vector<CellId>& stream,
                                const std::vector<std::vector<CellId>>& queries,
                                int warm_windows, int reps) {
  core::DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.05;
  c.lambda = 2.0;
  c.representation = core::Representation::kBit;
  c.order = core::CombinationOrder::kSequential;
  c.use_index = false;
  c.enable_pruning = true;
  auto det = core::CopyDetector::Create(c).value();
  for (size_t q = 0; q < queries.size(); ++q) {
    VCD_CHECK(det->AddQueryCells(static_cast<int>(q) + 1, queries[q],
                                 kQuerySeconds)
                  .ok(),
              "add query");
  }
  const int64_t warm_slots =
      static_cast<int64_t>(warm_windows) * kSlotsPerWindow;
  for (int64_t slot = 0; slot < warm_slots; ++slot) {
    VCD_CHECK(det->ProcessFingerprint(
                     slot * 12, static_cast<double>(slot) / kKeyFps,
                     stream[static_cast<size_t>(slot) % stream.size()])
                  .ok(),
              "feed");
  }

  double best_ms = 0.0;
  for (int rep = 0; rep < reps + 1; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ckpt::SnapshotState state;
    ckpt::StampMeta(c, &state);
    state.streams.resize(1);
    state.streams[0].stream_id = 1;
    state.streams[0].name = "bench";
    state.streams[0].detector = det->ExportCkptState();
    const std::vector<uint8_t> image =
        ckpt::EncodeSnapshot(static_cast<uint64_t>(rep) + 1,
                             ckpt::EncodeState(state));
    const auto t1 = std::chrono::steady_clock::now();
    VCD_CHECK(!image.empty(), "empty snapshot image");
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // The first pass pays one-time allocation warmup for the codec buffers;
    // skip it, then keep the best of the remaining reps.
    if (rep == 0) continue;
    if (rep == 1 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

/// Heap allocations per steady-state window of the index path, which the
/// timed rows (no index) never reach: a Sequential-Bit K=64 detector with
/// the Hash-Query index on, over a periodic stream that follows every two
/// windows of query content with one window of cells no query holds. The
/// probe relates each content window to some of the queries, and an older
/// candidate's query that a window is not related to — every query, in a
/// foreign window — gets a completion signature (DESIGN.md §6), so the
/// measured windows run the probe, the completion builds and their
/// release. Worst of \p reps; not timed, because the timed rows' key
/// (order, rep, K, isa) has no index field.
double MeasureIndexPathAllocsPerWindow(
    const std::vector<std::vector<CellId>>& queries, int warm_windows,
    int meas_windows, int reps) {
  constexpr int kPeriodWindows = 12;
  Rng rng(20080407);
  std::vector<CellId> stream;
  for (int w = 0; w < kPeriodWindows; ++w) {
    const std::vector<CellId> cells =
        w % 3 == 2 ? RandomIds(&rng, kSlotsPerWindow, 4096, 60000)
                   : RandomIds(&rng, kSlotsPerWindow, 0, 2048);
    stream.insert(stream.end(), cells.begin(), cells.end());
  }
  core::DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.05;
  c.lambda = 2.0;
  c.representation = core::Representation::kBit;
  c.order = core::CombinationOrder::kSequential;
  c.use_index = true;
  c.enable_pruning = true;
  auto det = core::CopyDetector::Create(c).value();
  for (size_t q = 0; q < queries.size(); ++q) {
    VCD_CHECK(det->AddQueryCells(static_cast<int>(q) + 1, queries[q],
                                 kQuerySeconds)
                  .ok(),
              "add query");
  }
  int64_t slot = 0;
  const auto feed = [&](int windows) {
    const int64_t end = slot + static_cast<int64_t>(windows) * kSlotsPerWindow;
    for (; slot < end; ++slot) {
      VCD_CHECK(det->ProcessFingerprint(
                       slot * 12, static_cast<double>(slot) / kKeyFps,
                       stream[static_cast<size_t>(slot) % stream.size()])
                    .ok(),
                "feed");
    }
  };
  feed(warm_windows);
  double worst = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
    feed(meas_windows);
    const int64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
    worst = std::max(worst, static_cast<double>(allocs_after - allocs_before) /
                                meas_windows);
  }
  return worst;
}

/// Measures the relative wall-clock overhead the QoS governor (DESIGN.md
/// §17) adds to the parallel frame path while it stays idle: one stream fed
/// through a single-shard StreamExecutor with the governor off versus
/// enabled with a 1 ms sensing tick and watermarks/dwell it can never cross.
/// The enabled-idle run pays exactly the always-on costs — the per-submit
/// shed-gate check and the periodic pressure sampling — which the ≤1%%
/// budget in tools/bench_diff.py gates. Interleaved best-of-\p reps pairs
/// (plus one discarded warmup pair) shield against machine noise; returns
/// max(0, overhead) as a percentage.
double MeasureQosGovernorOverheadPct(int frames, int reps) {
  core::DetectorConfig c;
  c.K = 64;
  c.window_seconds = 4.0;
  c.delta = 0.05;

  const auto run_ms = [&](bool qos_on) {
    core::ParallelConfig pc;
    pc.num_threads = 1;
    pc.queue_capacity = 256;
    pc.backpressure = core::BackpressurePolicy::kBlock;
    if (qos_on) {
      pc.qos.enabled = true;
      // Production sensing cadence (the vcdctl default). An aggressive
      // 1 ms tick would measure timer-thread context switches on small
      // machines instead of the frame-path cost this gate bounds.
      pc.qos.tick_ms = 50;
      pc.qos.escalate_dwell_ticks = 1000000;
    }
    auto exec = parallel::StreamExecutor::Create(c, pc).value();
    const int sid = exec->OpenStream("bench").value();
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t slot = 0; slot < frames; ++slot) {
      video::DcFrame f;
      f.blocks_x = 6;
      f.blocks_y = 6;
      f.frame_index = slot * 12;
      f.timestamp = static_cast<double>(slot) / kKeyFps;
      f.dc.resize(36);
      for (size_t i = 0; i < 36; ++i) {
        f.dc[i] = static_cast<float>((slot * 7 + static_cast<int64_t>(i)) % 255);
      }
      VCD_CHECK(exec->ProcessKeyFrame(sid, std::move(f)).ok(), "feed");
    }
    VCD_CHECK(exec->Drain().ok(), "drain");
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  // Min of per-pair ratios, not ratio of per-arm mins: on a loaded or
  // single-core machine each ~tens-of-ms run carries scheduler jitter, and
  // pairing keeps both arms inside the same jitter regime. A real frame-path
  // regression shows up in every pair; noise only inflates single pairs.
  double best_ratio = 0.0;
  for (int rep = 0; rep < reps + 1; ++rep) {
    const double off = run_ms(false);
    const double on = run_ms(true);
    if (rep == 0) continue;  // one-time warmup (thread spawn, allocator)
    if (off <= 0.0) continue;
    const double ratio = on / off;
    if (best_ratio == 0.0 || ratio < best_ratio) best_ratio = ratio;
  }
  if (best_ratio <= 0.0) return 0.0;
  const double pct = (best_ratio - 1.0) * 100.0;
  return pct > 0.0 ? pct : 0.0;
}

const char* OrderName(core::CombinationOrder o) {
  return o == core::CombinationOrder::kSequential ? "Sequential" : "Geometric";
}

const char* RepName(core::Representation r) {
  return r == core::Representation::kBit ? "Bit" : "Sketch";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::string metrics_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      metrics_json_path = argv[i] + 15;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json=PATH] [--metrics-json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  // Warmup must outlast capacity convergence: candidate shells recycle
  // through a spare pool, and each shell's vectors individually grow to
  // their steady-state capacity before the hot path goes allocation-free.
  const int warm_windows = quick ? 80 : 120;
  const int meas_windows = quick ? 60 : 200;
  const int reps = quick ? 1 : 3;
  // The windows/sec rows take the best of 3 in both modes: a quick run's 60
  // windows last a few ms, so one preempted rep can halve a row, and the
  // best-ISA/scalar-ISA ratio inherits the full swing.
  const int row_reps = 3;

  Rng rng(20080615);
  std::vector<std::vector<CellId>> queries;
  for (int q = 0; q < kNumQueries; ++q) {
    queries.push_back(RandomIds(&rng, kQueryCells, 0, 2048));
  }
  // Background drawn from a disjoint id range: deterministic, and no
  // min-hash position ever compares equal against a query.
  const std::vector<CellId> stream = RandomIds(&rng, 20000, 4096, 60000);

  // The dispatched ISA, resolved before any ForceIsa: the widest level the
  // CPU supports, or the one VCD_KERNEL_ISA names.
  const std::string best_isa = sketch::kernels::ActiveOps().name;
  std::vector<std::string> isas = {"scalar"};
  if (best_isa != "scalar") isas.push_back(best_isa);

  bench::BenchJsonWriter json("hotpath");
  json.AddMeta("kernel_isa", bench::BenchJsonWriter::Str(best_isa));
  json.AddMeta("queries", bench::BenchJsonWriter::Num(int64_t{kNumQueries}));
  json.AddMeta("warm_windows", bench::BenchJsonWriter::Num(int64_t{warm_windows}));
  json.AddMeta("meas_windows", bench::BenchJsonWriter::Num(int64_t{meas_windows}));
  json.AddMeta("reps", bench::BenchJsonWriter::Num(int64_t{row_reps}));
  json.AddMeta("quick", bench::BenchJsonWriter::Bool(quick));

  std::printf(
      "bench_hotpath: %d queries, %d measured windows per run%s, "
      "kernel ISAs: scalar vs %s\n",
      kNumQueries, meas_windows, quick ? " (quick)" : "", best_isa.c_str());
  std::printf("%-11s %-7s %5s %7s | %13s %13s %9s | %8s\n", "order", "rep",
              "K", "isa", "windows/s", "alloc/win", "sig/win", "speedup");

  bool pooled_alloc_free = true;
  double seqbit64_scalar = 0.0, seqbit64_best = 0.0;
  for (core::CombinationOrder order : {core::CombinationOrder::kSequential,
                                       core::CombinationOrder::kGeometric}) {
    for (core::Representation rep :
         {core::Representation::kBit, core::Representation::kSketch}) {
      for (int k : {16, 64, 256}) {
        const std::vector<RunResult> results =
            RunConfig(RunSpec{rep, order, k}, isas, stream, queries,
                      warm_windows, meas_windows, row_reps);
        const double scalar_wps = results[0].windows_per_sec;  // isas[0]
        for (size_t a = 0; a < isas.size(); ++a) {
          const std::string& isa = isas[a];
          const RunResult& r = results[a];
          const bool scalar = isa == "scalar";
          if (r.allocs_per_window != 0.0) pooled_alloc_free = false;
          if (order == core::CombinationOrder::kSequential &&
              rep == core::Representation::kBit && k == 64) {
            (scalar ? seqbit64_scalar : seqbit64_best) = r.windows_per_sec;
          }
          std::printf("%-11s %-7s %5d %7s | %13.1f %13.2f %9.1f | %7.2fx\n",
                      OrderName(order), RepName(rep), k, isa.c_str(),
                      r.windows_per_sec, r.allocs_per_window, r.sigs_per_window,
                      scalar_wps > 0 ? r.windows_per_sec / scalar_wps : 1.0);
          json.AddRow({
              {"order", bench::BenchJsonWriter::Str(OrderName(order))},
              {"representation", bench::BenchJsonWriter::Str(RepName(rep))},
              {"K", bench::BenchJsonWriter::Num(int64_t{k})},
              {"isa", bench::BenchJsonWriter::Str(isa)},
              {"windows_per_sec", bench::BenchJsonWriter::Num(r.windows_per_sec)},
              {"allocs_per_window",
               bench::BenchJsonWriter::Num(r.allocs_per_window)},
              {"signatures_per_window",
               bench::BenchJsonWriter::Num(r.sigs_per_window)},
              {"windows", bench::BenchJsonWriter::Num(r.windows)},
          });
        }
      }
    }
  }
  // The remaining measurements run on the dispatched ISA.
  VCD_CHECK(sketch::kernels::ForceIsa(best_isa).ok(), "restore kernel ISA");
  const double index_allocs =
      MeasureIndexPathAllocsPerWindow(queries, warm_windows, meas_windows, reps);
  if (index_allocs != 0.0) pooled_alloc_free = false;

  const double speedup =
      seqbit64_scalar > 0 && seqbit64_best > 0 ? seqbit64_best / seqbit64_scalar
                                               : 0.0;
  const double ckpt_pause_ms =
      MeasureCheckpointPauseMs(stream, queries, warm_windows, reps);
  std::printf("\nindex-on Sequential-Bit K=64 (untimed): %.2f allocations/window\n",
              index_allocs);
  std::printf("Sequential-Bit K=64: scalar ISA %.1f w/s, %s %.1f w/s "
              "(%.2fx); steady-state allocations/window: %s\n",
              seqbit64_scalar, best_isa.c_str(), seqbit64_best, speedup,
              pooled_alloc_free ? "0 (all runs)" : "NONZERO");
  std::printf("checkpoint pause (export+encode, steady state): %.3f ms\n",
              ckpt_pause_ms);
  const double qos_overhead_pct =
      MeasureQosGovernorOverheadPct(quick ? 6000 : 16000, reps + 2);
  std::printf("qos governor overhead (enabled-idle vs off): %.2f%%\n",
              qos_overhead_pct);
  json.AddMeta("seqbit64_speedup", bench::BenchJsonWriter::Num(speedup));
  json.AddMeta("index_allocs_per_window",
               bench::BenchJsonWriter::Num(index_allocs));
  json.AddMeta("pooled_alloc_free",
               bench::BenchJsonWriter::Bool(pooled_alloc_free));
  json.AddMeta("checkpoint_pause_ms",
               bench::BenchJsonWriter::Num(ckpt_pause_ms));
  json.AddMeta("qos_governor_overhead_pct",
               bench::BenchJsonWriter::Num(qos_overhead_pct));

  if (!json_path.empty()) {
    const Status s = json.WriteFile(json_path);
    if (!s.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    if (!WriteMetricsSample(metrics_json_path, stream, queries)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_json_path.c_str());
  }
  // The smoke contract for CI: the window step must stay allocation-free.
  return pooled_alloc_free ? 0 : 1;
}
