/// \file bench_parallel_streams.cc
/// Throughput of the parallel sharded stream executor vs. one detector per
/// stream on the calling thread: frames/sec over S concurrent synthetic
/// streams as a function of worker-thread count.
///
/// Usage:
///   bench_parallel_streams [--streams=8] [--frames=2000] [--k=800]
///                          [--queries=20] [--threads=1,2,4,8] [--seed=42]
///                          [--json=BENCH_parallel.json]
///
/// Besides the human-oriented table, every run writes the same rows as a
/// machine-readable JSON document (default BENCH_parallel.json; --json= with
/// an empty value disables it).
///
/// Every configuration processes the *same* precomputed DC-frame streams
/// (content generation is excluded from the timed region), so the table
/// isolates executor scaling. The serial row feeds one CopyDetector per
/// stream on the bench thread in the same round-robin order — the
/// executor's detection work without the queue hop, so the gap between it
/// and the 1-thread row is the hop's cost. Speedup is relative to the
/// 1-thread executor row.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "parallel/executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

using namespace vcd;

namespace {

struct Options {
  int streams = 8;
  int frames = 2000;  ///< key frames per stream
  int k = 800;
  int queries = 20;
  uint64_t seed = 42;
  std::vector<int> threads = {1, 2, 4, 8};
  std::string json_path = "BENCH_parallel.json";  ///< empty = no JSON output
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--streams=", 10) == 0) o.streams = std::atoi(a + 10);
    else if (std::strncmp(a, "--frames=", 9) == 0) o.frames = std::atoi(a + 9);
    else if (std::strncmp(a, "--k=", 4) == 0) o.k = std::atoi(a + 4);
    else if (std::strncmp(a, "--queries=", 10) == 0) o.queries = std::atoi(a + 10);
    else if (std::strncmp(a, "--seed=", 7) == 0)
      o.seed = static_cast<uint64_t>(std::atoll(a + 7));
    else if (std::strncmp(a, "--json=", 7) == 0) o.json_path = a + 7;
    else if (std::strncmp(a, "--threads=", 10) == 0) {
      o.threads.clear();
      for (const char* p = a + 10; *p != '\0';) {
        o.threads.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", a);
      std::exit(2);
    }
  }
  return o;
}

/// A synthetic key frame whose fingerprint varies with \p fill.
video::DcFrame MakeFrame(int64_t slot, float fill) {
  video::DcFrame f;
  f.blocks_x = 22;
  f.blocks_y = 18;
  f.frame_index = slot * 12;
  f.timestamp = static_cast<double>(slot) / 2.5;
  f.dc.resize(static_cast<size_t>(f.blocks_x * f.blocks_y));
  for (size_t i = 0; i < f.dc.size(); ++i) {
    f.dc[i] = 8.0f * 60.0f * std::sin(0.7f * fill + 0.13f * static_cast<float>(i));
  }
  return f;
}

core::DetectorConfig MakeConfig(const Options& o) {
  core::DetectorConfig c;
  c.K = o.k;
  c.window_seconds = 5.0;
  c.delta = 0.7;
  return c;
}

/// Per-stream content: mostly stream-specific background with an embedded
/// copy of one query so the match path is exercised too.
std::vector<std::vector<video::DcFrame>> BuildStreams(const Options& o) {
  std::vector<std::vector<video::DcFrame>> streams(static_cast<size_t>(o.streams));
  for (int s = 0; s < o.streams; ++s) {
    auto& frames = streams[static_cast<size_t>(s)];
    frames.reserve(static_cast<size_t>(o.frames));
    const int copy_at = o.frames / 3 + 11 * s;
    for (int i = 0; i < o.frames; ++i) {
      float fill;
      if (i >= copy_at && i < copy_at + 40) {
        fill = 1000.0f + static_cast<float>(s % 2 == 0 ? i - copy_at : 0);
      } else {
        fill = static_cast<float>(s) * 37.0f + static_cast<float>(i % 23);
      }
      frames.push_back(MakeFrame(i, fill));
    }
  }
  return streams;
}

std::vector<sketch::Sketch> BuildQuerySketches(const Options& o,
                                               const core::DetectorConfig& c) {
  auto fam = sketch::MinHashFamily::Create(c.K, c.hash_seed).value();
  sketch::Sketcher sk(&fam);
  Rng rng(o.seed);
  std::vector<sketch::Sketch> out;
  // Query 1 is the embedded copy segment (so the match/report path runs);
  // the rest are background portfolio load that never matches.
  std::vector<video::DcFrame> copy_frames;
  for (int i = 0; i < 40; ++i) {
    copy_frames.push_back(MakeFrame(i, 1000.0f + static_cast<float>(i)));
  }
  out.push_back(core::PrepareQuery(c, copy_frames, 16.0).value().sketch);
  for (int q = 1; q < o.queries; ++q) {
    std::vector<features::CellId> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back(static_cast<features::CellId>(rng.Uniform(5000)));
    }
    out.push_back(sk.FromSequence(ids));
  }
  return out;
}

struct RunResult {
  double seconds = 0.0;
  size_t matches = 0;
  double busy_seconds = 0.0;   ///< summed over shards (executor only)
  size_t queue_high_water = 0;
};

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

/// One timed executor run: subscribe queries, open all streams, feed frames
/// round-robin (the arrival pattern of concurrent live streams), close.
RunResult Feed(parallel::StreamExecutor& exec, const Options& o,
               const std::vector<std::vector<video::DcFrame>>& streams,
               const std::vector<sketch::Sketch>& queries) {
  RunResult r;
  for (int q = 0; q < o.queries; ++q) {
    CheckOk(exec.AddQuerySketch(q + 1, queries[static_cast<size_t>(q)], 40, 16.0),
            "AddQuerySketch");
  }
  std::vector<int> ids;
  for (int s = 0; s < o.streams; ++s) {
    ids.push_back(exec.OpenStream("stream-" + std::to_string(s)).value());
  }
  Stopwatch sw;
  for (int i = 0; i < o.frames; ++i) {
    for (int s = 0; s < o.streams; ++s) {
      (void)exec.ProcessKeyFrame(ids[static_cast<size_t>(s)],
                                 streams[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
  }
  for (int id : ids) (void)exec.CloseStream(id);
  r.seconds = sw.ElapsedSeconds();
  r.matches = exec.matches().size();
  return r;
}

/// The serial row: the same subscriptions and round-robin feed, with one
/// CopyDetector per stream driven on the calling thread.
RunResult FeedSerial(const core::DetectorConfig& config, const Options& o,
                     const std::vector<std::vector<video::DcFrame>>& streams,
                     const std::vector<sketch::Sketch>& queries) {
  RunResult r;
  std::vector<std::unique_ptr<core::CopyDetector>> detectors;
  for (int s = 0; s < o.streams; ++s) {
    detectors.push_back(core::CopyDetector::Create(config).value());
    for (int q = 0; q < o.queries; ++q) {
      CheckOk(detectors.back()->AddQuerySketch(q + 1, queries[static_cast<size_t>(q)],
                                               40, 16.0),
              "AddQuerySketch");
    }
  }
  Stopwatch sw;
  for (int i = 0; i < o.frames; ++i) {
    for (int s = 0; s < o.streams; ++s) {
      (void)detectors[static_cast<size_t>(s)]->ProcessKeyFrame(
          streams[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
  }
  for (auto& det : detectors) {
    (void)det->Finish();
    r.matches += det->matches().size();
  }
  r.seconds = sw.ElapsedSeconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  const core::DetectorConfig config = MakeConfig(o);
  std::printf("# parallel sharded stream executor: %d streams x %d key frames, "
              "K=%d, %d queries\n",
              o.streams, o.frames, o.k, o.queries);
  const auto streams = BuildStreams(o);
  const auto queries = BuildQuerySketches(o, config);
  const double total_frames = static_cast<double>(o.streams) * o.frames;

  TablePrinter table({"executor", "threads", "seconds", "frames/sec", "speedup",
                      "matches", "busy s", "q high-water"});

  using bench::BenchJsonWriter;
  BenchJsonWriter json("parallel_streams");
  json.AddMeta("streams", BenchJsonWriter::Num(int64_t{o.streams}));
  json.AddMeta("frames_per_stream", BenchJsonWriter::Num(int64_t{o.frames}));
  json.AddMeta("k", BenchJsonWriter::Num(int64_t{o.k}));
  json.AddMeta("queries", BenchJsonWriter::Num(int64_t{o.queries}));
  json.AddMeta("seed", BenchJsonWriter::Num(static_cast<int64_t>(o.seed)));

  const RunResult serial = FeedSerial(config, o, streams, queries);
  table.AddRow({"serial", "-", TablePrinter::Fmt(serial.seconds),
                TablePrinter::Fmt(total_frames / serial.seconds, 0), "-",
                std::to_string(serial.matches), "-", "-"});
  json.AddRow({{"executor", BenchJsonWriter::Str("serial")},
               {"threads", BenchJsonWriter::Num(int64_t{0})},
               {"seconds", BenchJsonWriter::Num(serial.seconds)},
               {"fps", BenchJsonWriter::Num(total_frames / serial.seconds)},
               {"speedup", "null"},
               {"matches", BenchJsonWriter::Num(static_cast<int64_t>(serial.matches))},
               {"busy_seconds", "null"},
               {"queue_high_water", "null"}});

  double base_fps = 0.0;
  for (int threads : o.threads) {
    core::ParallelConfig pc;
    pc.num_threads = threads;
    pc.queue_capacity = 512;
    pc.backpressure = core::BackpressurePolicy::kBlock;
    auto exec = parallel::StreamExecutor::Create(config, pc).value();
    RunResult r = Feed(*exec, o, streams, queries);
    const parallel::ExecutorStats es = exec->Stats();
    for (const auto& sh : es.shards) {
      r.busy_seconds += sh.busy_seconds;
      r.queue_high_water = std::max(r.queue_high_water, sh.queue_high_water);
    }
    const double fps = total_frames / r.seconds;
    if (base_fps == 0.0) base_fps = fps;
    if (r.matches != serial.matches) {
      std::fprintf(stderr, "WARNING: match count diverged (%zu vs serial %zu)\n",
                   r.matches, serial.matches);
    }
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", fps / base_fps);
    table.AddRow({"sharded", std::to_string(threads), TablePrinter::Fmt(r.seconds),
                  TablePrinter::Fmt(fps, 0), speedup, std::to_string(r.matches),
                  TablePrinter::Fmt(r.busy_seconds),
                  std::to_string(r.queue_high_water)});
    json.AddRow(
        {{"executor", BenchJsonWriter::Str("sharded")},
         {"threads", BenchJsonWriter::Num(int64_t{threads})},
         {"seconds", BenchJsonWriter::Num(r.seconds)},
         {"fps", BenchJsonWriter::Num(fps)},
         {"speedup", BenchJsonWriter::Num(fps / base_fps)},
         {"matches", BenchJsonWriter::Num(static_cast<int64_t>(r.matches))},
         {"busy_seconds", BenchJsonWriter::Num(r.busy_seconds)},
         {"queue_high_water",
          BenchJsonWriter::Num(static_cast<int64_t>(r.queue_high_water))}});
  }
  table.Print();
  if (!o.json_path.empty()) {
    Status st = json.WriteFile(o.json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "JSON output: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", o.json_path.c_str());
  }
  return 0;
}
