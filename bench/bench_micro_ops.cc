/// \file bench_micro_ops.cc
/// Micro-benchmarks of the primitive costs the paper's Eq. 4 is built from:
/// C_comp and C_comb for the raw-sketch and bit-signature representations,
/// min-hash sketching of a basic window, and the Hash-Query index probe.
/// Also benches the Lemma-2 pruning ablation at the detector level, and the
/// front end's partial decode (§III-A) with its Exp-Golomb reader.

#include <benchmark/benchmark.h>

#include <mutex>  // NOLINT(vcd-annotated-mutex): baseline for the vcd::Mutex overhead pin

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/detector.h"
#include "util/logging.h"
#include "index/hash_query_index.h"
#include "sketch/bit_signature.h"
#include "sketch/kernels/kernels.h"
#include "sketch/minhash.h"
#include "sketch/signature_pool.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "video/bitstream.h"
#include "video/codec.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace {

using namespace vcd;
using features::CellId;
using sketch::BitSignature;
using sketch::MinHashFamily;
using sketch::Sketch;
using sketch::Sketcher;

std::vector<CellId> RandomIds(Rng* rng, size_t n, uint32_t universe = 10240) {
  std::vector<CellId> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<CellId>(rng->Uniform(universe)));
  }
  return out;
}

void BM_SketchWindow(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(1);
  auto ids = RandomIds(&rng, 12);  // one 5 s basic window of key frames
  for (auto _ : state) {
    benchmark::DoNotOptimize(sk.FromSequence(ids));
  }
}
BENCHMARK(BM_SketchWindow)->Arg(100)->Arg(800)->Arg(3000);

void BM_SketchCompare(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(2);
  Sketch a = sk.FromSequence(RandomIds(&rng, 30));
  Sketch b = sk.FromSequence(RandomIds(&rng, 30));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sketcher::Similarity(a, b));
  }
}
BENCHMARK(BM_SketchCompare)->Arg(100)->Arg(800)->Arg(3000);

void BM_SketchCombine(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(3);
  Sketch a = sk.FromSequence(RandomIds(&rng, 30));
  Sketch b = sk.FromSequence(RandomIds(&rng, 30));
  for (auto _ : state) {
    Sketch tmp = a;
    Sketcher::Combine(&tmp, b);
    benchmark::DoNotOptimize(tmp);
  }
}
BENCHMARK(BM_SketchCombine)->Arg(100)->Arg(800)->Arg(3000);

void BM_BitSimilarity(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(4);
  BitSignature sig = BitSignature::FromSketches(sk.FromSequence(RandomIds(&rng, 30)),
                                                sk.FromSequence(RandomIds(&rng, 30)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.Similarity());
  }
}
BENCHMARK(BM_BitSimilarity)->Arg(100)->Arg(800)->Arg(3000);

void BM_BitOrCombine(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(5);
  Sketch q = sk.FromSequence(RandomIds(&rng, 30));
  BitSignature a = BitSignature::FromSketches(sk.FromSequence(RandomIds(&rng, 30)), q);
  BitSignature b = BitSignature::FromSketches(sk.FromSequence(RandomIds(&rng, 30)), q);
  for (auto _ : state) {
    BitSignature tmp = a;
    tmp.OrWith(b);
    benchmark::DoNotOptimize(tmp);
  }
}
BENCHMARK(BM_BitOrCombine)->Arg(100)->Arg(800)->Arg(3000);

void BM_BuildBitSignature(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(6);
  Sketch a = sk.FromSequence(RandomIds(&rng, 30));
  Sketch q = sk.FromSequence(RandomIds(&rng, 30));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitSignature::FromSketches(a, q));
  }
}
BENCHMARK(BM_BuildBitSignature)->Arg(100)->Arg(800)->Arg(3000);

// --- Hash-Query index --------------------------------------------------------
// Args: m, then the content regime. Regime 0 is a shared vocabulary: every
// query and the window draw from one 1024-cell universe, so most queries
// share some min-hash value with any window. Regime 1 is distinct content:
// query q draws from its own 100 cells and the window replays query 0's.

constexpr int kIndexK = 800;

struct IndexBenchSet {
  std::vector<Sketch> sketches;  ///< ordinal q's sketch
  std::vector<index::HashQueryIndex::Query> queries;
  Sketch window;
  Sketch extra;  ///< the query Insert/Remove cycle, at ordinal m
};

/// One sketch set per (m, regime), made once: m = 10 000 takes seconds.
const IndexBenchSet& IndexSet(int m, bool distinct) {
  static std::map<std::pair<int, bool>, std::unique_ptr<IndexBenchSet>> cache;
  std::unique_ptr<IndexBenchSet>& set = cache[{m, distinct}];
  if (set) return *set;
  set = std::make_unique<IndexBenchSet>();
  auto fam = MinHashFamily::Create(kIndexK).value();
  Sketcher sk(&fam);
  Rng rng(7);
  const auto cells = [&](int q, size_t n) {
    std::vector<CellId> ids = RandomIds(&rng, n, distinct ? 100 : 1024);
    if (distinct) {
      for (CellId& id : ids) id += static_cast<CellId>(q) * 100;
    }
    return ids;
  };
  for (int q = 0; q < m; ++q) set->sketches.push_back(sk.FromSequence(cells(q, 80)));
  for (int q = 0; q < m; ++q) {
    set->queries.push_back({q, &set->sketches[static_cast<size_t>(q)]});
  }
  set->window = sk.FromSequence(cells(0, 12));
  set->extra = sk.FromSequence(cells(m, 80));
  return *set;
}

/// The paper's ProbeIndex: the related queries of one window, each with its
/// Lemma-2-pruned bit signature, built query-major as the detector does.
void BM_IndexProbe(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const IndexBenchSet& set = IndexSet(m, state.range(1) != 0);
  auto idx = index::HashQueryIndex::Build(kIndexK, set.queries).value();
  sketch::SignaturePool pool(kIndexK);
  std::vector<uint64_t> seen;
  std::vector<int> related;
  std::vector<sketch::SignaturePool::Handle> kept;
  const int max_less = BitSignature::Lemma2MaxLess(kIndexK, 0.7);
  for (auto _ : state) {
    idx.ProbeRelatedInto(set.window, &seen, &related);
    for (int q : related) {
      const sketch::SignaturePool::Handle h = pool.Allocate();
      pool.BuildFromSketches(h, set.window, set.sketches[static_cast<size_t>(q)]);
      if (pool.NumLess(h) <= max_less) {
        kept.push_back(h);
      } else {
        pool.Free(h);
      }
    }
    for (sketch::SignaturePool::Handle h : kept) pool.Free(h);
    kept.clear();
  }
  state.counters["related"] = static_cast<double>(related.size());
}
BENCHMARK(BM_IndexProbe)->ArgsProduct({{200, 1000, 10000}, {0, 1}});

void BM_BruteForceRelate(benchmark::State& state) {
  // The no-index equivalent of a probe: build a signature per query.
  const int m = static_cast<int>(state.range(0));
  const int k = 800;
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(8);
  std::vector<Sketch> sketches;
  for (int q = 0; q < m; ++q) sketches.push_back(sk.FromSequence(RandomIds(&rng, 80)));
  Sketch w = sk.FromSequence(RandomIds(&rng, 12));
  for (auto _ : state) {
    int related = 0;
    for (const Sketch& qs : sketches) {
      BitSignature sig = BitSignature::FromSketches(w, qs);
      related += sig.SatisfiesLemma2(0.7);
    }
    benchmark::DoNotOptimize(related);
  }
}
BENCHMARK(BM_BruteForceRelate)->Arg(10)->Arg(50)->Arg(200);

void BM_IndexInsert(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const IndexBenchSet& set = IndexSet(m, state.range(1) != 0);
  auto idx = index::HashQueryIndex::Build(kIndexK, set.queries).value();
  for (auto _ : state) {
    VCD_CHECK_OK(idx.Insert(m, set.extra));
    state.PauseTiming();
    VCD_CHECK_OK(idx.Remove(m, set.extra));
    state.ResumeTiming();
  }
}
BENCHMARK(BM_IndexInsert)->ArgsProduct({{200, 1000, 10000}, {0, 1}});

void BM_IndexRemove(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const IndexBenchSet& set = IndexSet(m, state.range(1) != 0);
  auto idx = index::HashQueryIndex::Build(kIndexK, set.queries).value();
  for (auto _ : state) {
    state.PauseTiming();
    VCD_CHECK_OK(idx.Insert(m, set.extra));
    state.ResumeTiming();
    VCD_CHECK_OK(idx.Remove(m, set.extra));
  }
}
BENCHMARK(BM_IndexRemove)->ArgsProduct({{200, 1000, 10000}, {0, 1}});

void BM_IndexBuild(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const IndexBenchSet& set = IndexSet(m, state.range(1) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::HashQueryIndex::Build(kIndexK, set.queries));
  }
}
BENCHMARK(BM_IndexBuild)
    ->ArgsProduct({{200, 1000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// --- slab kernels ------------------------------------------------------------
// Each BM_Pool* bench runs one SignaturePool batch kernel over a fixed
// candidate set in a contiguous slab. Arg is K; the candidate set is 256
// signatures.

constexpr size_t kPoolBenchSigs = 256;

struct PoolBenchFixture {
  sketch::SignaturePool pool;
  std::vector<sketch::SignaturePool::Handle> dst;
  std::vector<sketch::SignaturePool::Handle> src;

  explicit PoolBenchFixture(int k) : pool(k) {
    auto fam = MinHashFamily::Create(k).value();
    Sketcher sk(&fam);
    Rng rng(11);
    Sketch q = sk.FromSequence(RandomIds(&rng, 30));
    for (size_t i = 0; i < kPoolBenchSigs; ++i) {
      Sketch a = sk.FromSequence(RandomIds(&rng, 30));
      Sketch b = sk.FromSequence(RandomIds(&rng, 30));
      dst.push_back(pool.Allocate());
      pool.BuildFromSketches(dst.back(), a, q);
      src.push_back(pool.Allocate());
      pool.BuildFromSketches(src.back(), b, q);
    }
  }
};

void BM_PoolOrRange(benchmark::State& state) {
  PoolBenchFixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    f.pool.OrRange(f.dst.data(), f.src.data(), kPoolBenchSigs);
    benchmark::DoNotOptimize(f.pool.word(f.dst[0], 0));
  }
}
BENCHMARK(BM_PoolOrRange)->Arg(100)->Arg(800)->Arg(3000);

void BM_PoolOrRangeFused(benchmark::State& state) {
  // The merge-path variant: OR plus NumLess of the result in one pass.
  PoolBenchFixture f(static_cast<int>(state.range(0)));
  std::vector<int> less(kPoolBenchSigs);
  for (auto _ : state) {
    f.pool.OrRange(f.dst.data(), f.src.data(), kPoolBenchSigs, less.data());
    benchmark::DoNotOptimize(less.data());
  }
}
BENCHMARK(BM_PoolOrRangeFused)->Arg(100)->Arg(800)->Arg(3000);

void BM_PoolNumEqualBatch(benchmark::State& state) {
  PoolBenchFixture f(static_cast<int>(state.range(0)));
  std::vector<int> eq(kPoolBenchSigs);
  for (auto _ : state) {
    f.pool.NumEqualBatch(f.dst.data(), kPoolBenchSigs, eq.data());
    benchmark::DoNotOptimize(eq.data());
  }
}
BENCHMARK(BM_PoolNumEqualBatch)->Arg(100)->Arg(800)->Arg(3000);

void BM_PoolSignatureLifecycle(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(12);
  Sketch a = sk.FromSequence(RandomIds(&rng, 30));
  Sketch q = sk.FromSequence(RandomIds(&rng, 30));
  sketch::SignaturePool pool(k);
  pool.Free(pool.Allocate());  // pre-grow so the loop hits the free-list path
  for (auto _ : state) {
    const auto h = pool.Allocate();
    pool.BuildFromSketches(h, a, q);
    benchmark::DoNotOptimize(pool.word(h, 0));
    pool.Free(h);
  }
}
BENCHMARK(BM_PoolSignatureLifecycle)->Arg(100)->Arg(800)->Arg(3000);

/// Lemma-2 pruning ablation: a short synthetic stream through BitNoIndex
/// with pruning on vs off.
void BM_DetectorPruning(benchmark::State& state) {
  const bool pruning = state.range(0) != 0;
  Rng rng(10);
  std::vector<CellId> stream_ids = RandomIds(&rng, 600, 9000);
  std::vector<std::vector<CellId>> queries;
  for (int q = 0; q < 20; ++q) queries.push_back(RandomIds(&rng, 60, 9000));
  for (auto _ : state) {
    core::DetectorConfig c;
    c.K = 400;
    c.window_seconds = 4.0;
    c.representation = core::Representation::kBit;
    c.use_index = false;
    c.enable_pruning = pruning;
    auto det = core::CopyDetector::Create(c).value();
    for (size_t q = 0; q < queries.size(); ++q) {
      VCD_CHECK(det->AddQueryCells(static_cast<int>(q) + 1, queries[q], 24.0).ok(),
                "add");
    }
    for (size_t i = 0; i < stream_ids.size(); ++i) {
      VCD_CHECK(det->ProcessFingerprint(static_cast<int64_t>(i) * 12,
                                        static_cast<double>(i) / 2.5, stream_ids[i])
                    .ok(),
                "feed");
    }
    benchmark::DoNotOptimize(det->stats().windows);
  }
}
BENCHMARK(BM_DetectorPruning)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- partial decode ---------------------------------------------------------

/// One 352×240 intra frame of a seeded scene with sensor noise, so the luma
/// blocks carry AC texture the DC-only skim has to walk.
std::vector<uint8_t> EncodeKeyFrame() {
  video::SceneModel model = video::SceneModel::Generate(11, 10.0);
  video::RenderOptions ro;
  ro.noise_sigma = 1.5;
  auto clip = video::RenderVideo(model, 2.0, 1.0 / ro.fps, ro);
  VCD_CHECK_OK(clip.status());
  video::CodecParams p;
  p.width = ro.width;
  p.height = ro.height;
  p.fps = ro.fps;
  auto bytes = video::Encoder::EncodeVideo(*clip, p);
  VCD_CHECK_OK(bytes.status());
  return std::move(bytes).value();
}

/// Exp-Golomb codes in the luma plane of the one-frame stream \p bytes:
/// per block the DC diff, each (run, level) pair and the end-of-block run.
int64_t LumaCodes(const std::vector<uint8_t>& bytes, int blocks) {
  const size_t payload = video::StreamHeaderSize() + 5;
  video::BitReader r(bytes.data() + payload, bytes.size() - payload);
  int64_t codes = 0;
  for (int b = 0; b < blocks; ++b) {
    int32_t level = 0;
    uint32_t run = 0;
    VCD_CHECK_OK(r.ReadSE(&level));
    for (codes += 2;; codes += 2) {
      VCD_CHECK_OK(r.ReadUE(&run));
      if (run == 63) break;
      VCD_CHECK_OK(r.ReadSE(&level));
    }
  }
  return codes;
}

void BM_PartialDecodeKeyFrame(benchmark::State& state) {
  const std::vector<uint8_t> bytes = EncodeKeyFrame();
  video::PartialDecoder pd;
  video::DcFrame frame;
  for (auto _ : state) {
    VCD_CHECK_OK(pd.Open(bytes.data(), bytes.size()));
    VCD_CHECK_OK(pd.NextKeyFrame(&frame));
    benchmark::DoNotOptimize(frame.dc.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["codes_per_frame"] =
      static_cast<double>(LumaCodes(bytes, frame.blocks_x * frame.blocks_y));
}
BENCHMARK(BM_PartialDecodeKeyFrame)->Unit(benchmark::kMicrosecond);

/// Reads 4096 unsigned Exp-Golomb codes whose prefix lengths are uniform in
/// [0, arg] zeros: arg 4 is the short codes of quantized AC data, arg 31
/// every legal length (up to 63-bit codes).
void BM_ExpGolombUE(benchmark::State& state) {
  const int max_zeros = static_cast<int>(state.range(0));
  constexpr int kCodes = 4096;
  Rng rng(12);
  video::BitWriter w;
  for (int i = 0; i < kCodes; ++i) {
    const int zeros = static_cast<int>(rng.Uniform(static_cast<uint64_t>(max_zeros) + 1));
    const uint64_t rest = rng.Next() & ((uint64_t{1} << zeros) - 1);
    w.WriteUE(static_cast<uint32_t>((uint64_t{1} << zeros) + rest - 1));
  }
  const std::vector<uint8_t> bytes = w.Finish();
  for (auto _ : state) {
    video::BitReader r(bytes.data(), bytes.size());
    uint32_t sum = 0;
    for (int i = 0; i < kCodes; ++i) {
      uint32_t v = 0;
      VCD_CHECK_OK(r.ReadUE(&v));
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kCodes);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_ExpGolombUE)->Arg(4)->Arg(31);

// Uncontended lock/unlock: raw std::mutex baseline vs the annotated, ranked
// vcd::Mutex. In release builds VCD_DEADLOCK_CHECK compiles the held-stack
// bookkeeping out, so these two must be indistinguishable — this pair is
// the zero-overhead pin for the runtime deadlock checker (DESIGN.md §14).
void BM_StdMutexLockUnlock(benchmark::State& state) {
  // NOLINT(vcd-annotated-mutex): deliberate raw baseline
  std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    benchmark::DoNotOptimize(&mu);
    mu.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_VcdMutexLockUnlock(benchmark::State& state) {
  Mutex mu{LockRank::kLeaf, "bench.micro"};
  for (auto _ : state) {
    mu.Lock();
    benchmark::DoNotOptimize(&mu);
    mu.Unlock();
  }
}
BENCHMARK(BM_VcdMutexLockUnlock);

// --- kernel dispatch ladder ------------------------------------------------
// BM_Kernel<op>/<isa> runs the same batch kernel over a pool constructed
// with each compiled-and-supported backend's ops table, so one run shows
// the whole ladder (scalar → popcnt → avx2 → avx512) side by side.
// Registered from main() — SupportedIsas() is a runtime CPU probe, not a
// compile-time list, so these cannot be static BENCHMARK() instances.
//
// Unlike PoolBenchFixture (whose interleaved dst/src allocation exercises
// the gather fallback), dst and src are each one consecutive ascending
// handle run — the steady-state detector layout the run-detected aligned
// fast path is built for.

struct KernelBenchFixture {
  sketch::SignaturePool pool;
  std::vector<sketch::SignaturePool::Handle> dst;
  std::vector<sketch::SignaturePool::Handle> src;
  std::vector<int> eq, less;

  KernelBenchFixture(int k, const sketch::kernels::KernelOps* ops)
      : pool(k, ops), eq(kPoolBenchSigs), less(kPoolBenchSigs) {
    auto fam = MinHashFamily::Create(k).value();
    Sketcher sk(&fam);
    Rng rng(13);
    Sketch q = sk.FromSequence(RandomIds(&rng, 30));
    for (size_t i = 0; i < kPoolBenchSigs; ++i) dst.push_back(pool.Allocate());
    for (size_t i = 0; i < kPoolBenchSigs; ++i) src.push_back(pool.Allocate());
    for (size_t i = 0; i < kPoolBenchSigs; ++i) {
      pool.BuildFromSketches(dst[i], sk.FromSequence(RandomIds(&rng, 30)), q);
      pool.BuildFromSketches(src[i], sk.FromSequence(RandomIds(&rng, 30)), q);
    }
  }
};

void BM_KernelNumEqualBatch(benchmark::State& state,
                            const sketch::kernels::KernelOps* ops) {
  KernelBenchFixture f(static_cast<int>(state.range(0)), ops);
  for (auto _ : state) {
    f.pool.NumEqualBatch(f.dst.data(), kPoolBenchSigs, f.eq.data());
    benchmark::DoNotOptimize(f.eq.data());
  }
}

void BM_KernelOrRangeFused(benchmark::State& state,
                           const sketch::kernels::KernelOps* ops) {
  KernelBenchFixture f(static_cast<int>(state.range(0)), ops);
  for (auto _ : state) {
    f.pool.OrRange(f.dst.data(), f.src.data(), kPoolBenchSigs, f.less.data());
    benchmark::DoNotOptimize(f.less.data());
  }
}

void BM_KernelBuildFromSketches(benchmark::State& state,
                                const sketch::kernels::KernelOps* ops) {
  const int k = static_cast<int>(state.range(0));
  auto fam = MinHashFamily::Create(k).value();
  Sketcher sk(&fam);
  Rng rng(14);
  Sketch a = sk.FromSequence(RandomIds(&rng, 30));
  Sketch q = sk.FromSequence(RandomIds(&rng, 30));
  sketch::SignaturePool pool(k, ops);
  const auto h = pool.Allocate();
  for (auto _ : state) {
    pool.BuildFromSketches(h, a, q);
    benchmark::DoNotOptimize(pool.word(h, 0));
  }
}

void RegisterKernelLadder() {
  using Fn = void (*)(benchmark::State&, const sketch::kernels::KernelOps*);
  const struct { const char* name; Fn fn; } kOps[] = {
      {"BM_KernelNumEqualBatch", &BM_KernelNumEqualBatch},
      {"BM_KernelOrRangeFused", &BM_KernelOrRangeFused},
      {"BM_KernelBuildFromSketches", &BM_KernelBuildFromSketches},
  };
  for (const auto& op : kOps) {
    for (sketch::kernels::Isa isa : sketch::kernels::SupportedIsas()) {
      const sketch::kernels::KernelOps* ops = sketch::kernels::OpsForIsa(isa);
      const std::string name =
          std::string(op.name) + "/" + sketch::kernels::IsaName(isa);
      benchmark::RegisterBenchmark(name.c_str(), op.fn, ops)
          ->Arg(100)->Arg(800)->Arg(3000);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterKernelLadder();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
