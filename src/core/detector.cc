#include "core/detector.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "obs/span.h"
#include "util/logging.h"

namespace vcd::core {

CopyDetector::CopyDetector(const DetectorConfig& config,
                           features::FrameFingerprinter fp,
                           sketch::MinHashFamily family, Portfolio* portfolio)
    : config_(config),
      fingerprinter_(std::make_unique<features::FrameFingerprinter>(std::move(fp))),
      family_(std::move(family)),
      sketcher_(&family_),
      portfolio_(portfolio),
      metrics_(obs::DetectorMetrics::Create(config.metrics)) {}

Result<std::unique_ptr<CopyDetector>> CopyDetector::Create(const DetectorConfig& config) {
  auto portfolio = std::make_unique<Portfolio>(config);
  auto det = Create(config, portfolio.get());
  if (det.ok()) (*det)->owned_portfolio_ = std::move(portfolio);
  return det;
}

Result<std::unique_ptr<CopyDetector>> CopyDetector::Create(const DetectorConfig& config,
                                                           Portfolio* portfolio) {
  VCD_RETURN_IF_ERROR(config.Validate());
  if (portfolio == nullptr || !portfolio->Serves(config)) {
    return Status::InvalidArgument(
        "portfolio serves another K, hash seed, lambda, window or index setting");
  }
  auto fp = features::FrameFingerprinter::Create(config.fingerprint);
  if (!fp.ok()) return fp.status();
  auto family = sketch::MinHashFamily::Create(config.K, config.hash_seed);
  if (!family.ok()) return family.status();
  auto det = std::unique_ptr<CopyDetector>(new CopyDetector(
      config, std::move(fp).value(), std::move(family).value(), portfolio));
  auto assembler = stream::BasicWindowAssembler::Create(config.window_seconds);
  if (!assembler.ok()) return assembler.status();
  det->assembler_.emplace(std::move(assembler).value());
  det->sig_pool_.emplace(config.K);
  det->sketch_pool_.emplace(config.K);
  det->max_less_ = config.enable_pruning
                       ? sketch::BitSignature::Lemma2MaxLess(config.K, config.delta)
                       : std::numeric_limits<int>::max();
  return det;
}

namespace {

/// A query's playback length L inferred from its (non-empty) key-frame
/// timestamps: the span plus one mean key-frame spacing.
double InferDuration(const DetectorConfig& config,
                     const std::vector<vcd::video::DcFrame>& key_frames) {
  const double span = key_frames.back().timestamp - key_frames.front().timestamp;
  const double spacing = key_frames.size() > 1
                             ? span / static_cast<double>(key_frames.size() - 1)
                             : config.window_seconds;
  return span + spacing;
}

}  // namespace

Result<PreparedQuery> PrepareQuery(const DetectorConfig& config,
                                   const std::vector<vcd::video::DcFrame>& key_frames,
                                   double duration_seconds) {
  if (key_frames.empty()) return Status::InvalidArgument("query has no key frames");
  auto fp = features::FrameFingerprinter::Create(config.fingerprint);
  if (!fp.ok()) return fp.status();
  auto family = sketch::MinHashFamily::Create(config.K, config.hash_seed);
  if (!family.ok()) return family.status();
  sketch::Sketcher sketcher(&family.value());
  const auto cells = fp->FingerprintSequence(key_frames);
  PreparedQuery q;
  q.length_frames = static_cast<int>(cells.size());
  q.duration_seconds =
      duration_seconds <= 0 ? InferDuration(config, key_frames) : duration_seconds;
  q.sketch = sketcher.FromSequence(cells);
  return q;
}

Status CopyDetector::AddQuery(int id, const std::vector<vcd::video::DcFrame>& key_frames,
                              double duration_seconds) {
  if (key_frames.empty()) return Status::InvalidArgument("query has no key frames");
  if (duration_seconds <= 0) duration_seconds = InferDuration(config_, key_frames);
  return AddQueryCells(id, fingerprinter_->FingerprintSequence(key_frames),
                       duration_seconds);
}

Status CopyDetector::AddQueryCells(int id, std::vector<features::CellId> ids,
                                   double duration_seconds) {
  if (ids.empty()) return Status::InvalidArgument("query has no frames");
  return AddQuerySketch(id, sketcher_.FromSequence(ids),
                        static_cast<int>(ids.size()), duration_seconds);
}

Status CopyDetector::AddQuerySketch(int id, sketch::Sketch sk, int length_frames,
                                    double duration_seconds) {
  return portfolio_->AddQuerySketch(id, std::move(sk), length_frames, duration_seconds);
}

std::vector<std::tuple<int, int, double, sketch::Sketch>>
CopyDetector::ExportQueries() const {
  return portfolio_->ExportQueries();
}

Status CopyDetector::RemoveQuery(int id) { return portfolio_->RemoveQuery(id); }

void CopyDetector::SizeFromPortfolio() {
  const int max_windows = portfolio_->global_max_windows();
  span_bound_ = std::max(span_bound_, max_windows);
  // The λL bound rises only with a subscription, which adds an ordinal.
  const size_t n = static_cast<size_t>(portfolio_->num_ordinals());
  if (n == suppress_until_.size()) return;
  suppress_until_.resize(n, -1.0);
  scratch_.window_sig.resize(n, sketch::SignaturePool::kInvalidHandle);
  // Structural bound for the flattened cross-candidate sweep: a chain
  // holds at most global_max_windows + 1 live candidates, each carrying
  // at most one signature per query. Reserving it up front keeps
  // TestBitCands allocation-free in steady state — stochastic pruning
  // makes the flat total fluctuate, so a warmup high-water mark alone does
  // not bound it.
  const size_t bound = static_cast<size_t>(max_windows + 1) * n;
  scratch_.handle_buf.reserve(bound);
  scratch_.eq_buf.reserve(bound);
  // A Geometric merge union grows with a Lemma-2 prune that desyncs two
  // blocks' query sets, and Sequential completions only when a window
  // leaves a query out of R_L — events warmup may never see, so these
  // buffers cannot rely on a high-water mark. One entry per query bounds
  // the merge union and the window's completions.
  scratch_.merge_sigs.reserve(n);
  scratch_.window_sig_set.reserve(n);
  scratch_.or_dst.reserve(n);
  scratch_.or_src.reserve(n);
  scratch_.or_less.reserve(n);
  scratch_.merge_related.reserve(n);
  scratch_.related.reserve(n);
  scratch_.related_seen.reserve((n + 63) / 64);
}

Status CopyDetector::ProcessKeyFrame(const vcd::video::DcFrame& frame) {
  if (frame.degraded) return ProcessDegraded(frame.frame_index, frame.timestamp);
  return ProcessFingerprint(frame.frame_index, frame.timestamp,
                            fingerprinter_->Fingerprint(frame));
}

Status CopyDetector::ProcessFingerprint(int64_t frame_index, double timestamp,
                                        features::CellId id) {
  if (saw_frame_ && timestamp < max_timestamp_) {
    // Clock skew: a frame behind the stream clock would land its id in the
    // wrong basic window. Demote it to degraded instead of poisoning the
    // window sequence.
    ++stats_.out_of_order_frames;
    return ProcessDegraded(frame_index, timestamp);
  }
  VCD_RETURN_IF_ERROR(portfolio_->EnsureIndex());
  saw_frame_ = true;
  max_timestamp_ = timestamp;
  ++stats_.key_frames;
  // The assembler swaps the completed window's id buffer into
  // scratch_.window, so the steady-state window cycle reuses two buffers
  // instead of allocating.
  if (assembler_->Add(frame_index, timestamp, id, &scratch_.window)) {
    ProcessWindow(scratch_.window);
  }
  return Status::OK();
}

Status CopyDetector::ProcessDegraded(int64_t frame_index, double timestamp) {
  VCD_RETURN_IF_ERROR(portfolio_->EnsureIndex());
  // A skewed timestamp must not move the window clock backwards (or jump
  // it forward past genuine frames): clamp into the observed range.
  if (saw_frame_ && timestamp < max_timestamp_) timestamp = max_timestamp_;
  saw_frame_ = true;
  max_timestamp_ = timestamp;
  ++stats_.key_frames;
  ++stats_.degraded_frames;
  if (assembler_->AddDegraded(frame_index, timestamp, &scratch_.window)) {
    ProcessWindow(scratch_.window);
  }
  return Status::OK();
}

Status CopyDetector::Finish() {
  VCD_RETURN_IF_ERROR(portfolio_->EnsureIndex());
  if (assembler_->Flush(&scratch_.window)) ProcessWindow(scratch_.window);
  return Status::OK();
}

void CopyDetector::ResetStream() {
  assembler_.emplace(
      stream::BasicWindowAssembler::Create(config_.window_seconds).value());
  const auto retire_bit = [&](BitCand& c) { RetireBit(&c); };
  const auto retire_sketch = [&](SketchCand& c) { RetireSketch(&c); };
  seq_bit_.Clear(retire_bit);
  seq_sketch_.Clear(retire_sketch);
  geo_bit_.Clear(retire_bit);
  geo_sketch_.Clear(retire_sketch);
  span_bound_ = portfolio_->global_max_windows();
  matches_.clear();
  stats_ = DetectorStats{};
  // Registry counters are cumulative across stream resets (a monitoring
  // registry never goes backwards); only the delta bookkeeping restarts.
  published_ = PublishedStats{};
  last_cand_count_ = 0;
  max_timestamp_ = 0.0;
  saw_frame_ = false;
  std::fill(suppress_until_.begin(), suppress_until_.end(), -1.0);
}

std::vector<Match> CopyDetector::TakeMatches() {
  // Matches are emitted only inside ProcessWindow, which publishes them
  // before it returns, so the whole log has been counted.
  published_.matches = 0;
  return std::exchange(matches_, {});
}

void CopyDetector::EmitMatch(int q, int64_t start_frame, int64_t end_frame,
                             double start_time, double end_time, double sim) {
  const Portfolio::QueryRec& rec = portfolio_->query(q);
  double& suppress_until = suppress_until_[static_cast<size_t>(q)];
  // Candidates containing the copy can stay above threshold until they
  // expire at λL, so the default mute interval covers that whole tail.
  const double cooldown = config_.report_cooldown_seconds < 0
                              ? config_.lambda * rec.duration_seconds
                              : config_.report_cooldown_seconds;
  if (cooldown > 0 && end_time < suppress_until) return;
  suppress_until = end_time + cooldown;
  Match m;
  m.query_id = rec.id;
  m.start_frame = start_frame;
  m.end_frame = end_frame;
  m.start_time = start_time;
  m.end_time = end_time;
  m.similarity = sim;
  matches_.push_back(m);
}

// --- candidate operations -------------------------------------------------

void CopyDetector::InitBitCand(BitCand* c, const stream::BasicWindow& window,
                               const sketch::Sketch& wsk) {
  c->num_windows = 1;
  c->start_frame = window.start_frame;
  c->end_frame = window.end_frame;
  c->start_time = window.start_time;
  c->end_time = window.end_time;
  c->sigs.clear();
  const Portfolio& portfolio = *portfolio_;
  // R_L's size varies with content, so a warmup high-water mark does not
  // bound a shell's list; one entry per query does (DESIGN.md §11).
  c->sigs.reserve(static_cast<size_t>(portfolio.num_ordinals()));
  sketch::SignaturePool& pool = *sig_pool_;
  // Builds q's signature into c unless it is already over Lemma 2's bound.
  const auto build = [&](int q) {
    const sketch::SignaturePool::Handle h = pool.Allocate();
    pool.BuildFromSketches(h, wsk, portfolio.query(q).sketch);
    if (pool.NumLess(h) > max_less_) {
      pool.Free(h);
      return false;
    }
    c->sigs.push_back(SigRef{q, h});
    return true;
  };
  if (config_.use_index) {
    const index::HashQueryIndex* index = portfolio.index();
    if (index == nullptr) return;
    // R_L, built query-major (DESIGN.md §6): probe-time prunes are not
    // counted, and bitsig_builds counts the survivors only.
    VCD_OBS_SPAN(metrics_.probe_ns);
    index->ProbeRelatedInto(wsk, &scratch_.related_seen, &scratch_.related);
    for (int q : scratch_.related) {
      if (build(q)) ++stats_.bitsig_builds;
    }
  } else {
    for (int q = 0; q < portfolio.num_ordinals(); ++q) {
      if (!portfolio.query(q).active) continue;
      ++stats_.bitsig_builds;
      if (!build(q)) ++stats_.candidates_pruned;
    }
  }
}

void CopyDetector::InitSketchCand(SketchCand* c, const stream::BasicWindow& window,
                                  const sketch::Sketch& wsk) {
  c->num_windows = 1;
  c->start_frame = window.start_frame;
  c->end_frame = window.end_frame;
  c->start_time = window.start_time;
  c->end_time = window.end_time;
  c->related.clear();
  c->sketch = sketch_pool_->Allocate();  // shell arrives retired (kInvalid)
  sketch_pool_->Assign(c->sketch, wsk);
  const index::HashQueryIndex* index = portfolio_->index();
  if (config_.use_index && index != nullptr) {
    VCD_OBS_SPAN(metrics_.probe_ns);
    index->ProbeRelatedInto(wsk, &scratch_.related_seen, &c->related);
  }
}

void CopyDetector::OrAndPrune(std::vector<SigRef>* sigs) {
  sketch::SignaturePool& pool = *sig_pool_;
  const std::vector<sketch::SignaturePool::Handle>& dst = scratch_.or_dst;
  std::vector<int>& less = scratch_.or_less;
  const size_t n = dst.size();
  stats_.bitsig_ors += static_cast<int64_t>(n);
  less.resize(n);
  pool.OrRange(dst.data(), scratch_.or_src.data(), n, less.data());
  // dst lists the OR'd entries' handles in list order, so one pass pairs
  // each with its fused count; an entry not OR'd kept its bits and still
  // satisfies Lemma 2.
  size_t out = 0;
  size_t t = 0;
  for (const SigRef s : *sigs) {
    const bool ored = t < n && s.sig == dst[t];
    if (ored && less[t++] > max_less_) {
      ++stats_.candidates_pruned;
      pool.Free(s.sig);
      continue;
    }
    (*sigs)[out++] = s;
  }
  sigs->resize(out);
}

void CopyDetector::MergeGeoBit(BitCand& older, const BitCand& newer) {
  sketch::SignaturePool& pool = *sig_pool_;
  // Union-merge into the scratch buffer: common ordinals are queued for one
  // batched OR; newer-only entries are cloned (the newer candidate keeps
  // ownership of its own slots and is retired by its container).
  std::vector<SigRef>& merged = scratch_.merge_sigs;
  std::vector<sketch::SignaturePool::Handle>& dst = scratch_.or_dst;
  std::vector<sketch::SignaturePool::Handle>& src = scratch_.or_src;
  merged.clear();
  dst.clear();
  src.clear();
  size_t i = 0, j = 0;
  while (i < older.sigs.size() || j < newer.sigs.size()) {
    if (j >= newer.sigs.size() ||
        (i < older.sigs.size() && older.sigs[i].q < newer.sigs[j].q)) {
      merged.push_back(older.sigs[i++]);
    } else if (i >= older.sigs.size() || newer.sigs[j].q < older.sigs[i].q) {
      const SigRef& s = newer.sigs[j++];
      merged.push_back(SigRef{s.q, pool.Clone(s.sig)});
    } else {
      dst.push_back(older.sigs[i].sig);
      src.push_back(newer.sigs[j++].sig);
      merged.push_back(older.sigs[i++]);
    }
  }
  OrAndPrune(&merged);
  older.sigs.swap(merged);
  older.num_windows += newer.num_windows;
  older.end_frame = newer.end_frame;
  older.end_time = newer.end_time;
}

void CopyDetector::MergeSeqBit(BitCand& older, const BitCand& fresh,
                               const sketch::Sketch& wsk) {
  sketch::SignaturePool& pool = *sig_pool_;
  std::vector<sketch::SignaturePool::Handle>& dst = scratch_.or_dst;
  std::vector<sketch::SignaturePool::Handle>& src = scratch_.or_src;
  dst.clear();
  src.clear();
  const int num_windows = older.num_windows + fresh.num_windows;
  const int* caps = portfolio_->window_caps();
  // A query only fresh tracks is not cloned: fresh keeps it, as the suffix
  // that starts at this window.
  size_t out = 0;
  size_t j = 0;
  for (size_t i = 0; i < older.sigs.size(); ++i) {
    const SigRef s = older.sigs[i];
    // caps[q] is 0 once unsubscribed: the test step's expiry, taken before
    // a completion would read a freed sketch.
    if (num_windows > caps[s.q]) {
      pool.Free(s.sig);
      continue;
    }
    while (j < fresh.sigs.size() && fresh.sigs[j].q < s.q) ++j;
    dst.push_back(s.sig);
    src.push_back(j < fresh.sigs.size() && fresh.sigs[j].q == s.q
                      ? fresh.sigs[j].sig
                      : WindowSignature(s.q, wsk));
    older.sigs[out++] = s;
  }
  older.sigs.resize(out);
  OrAndPrune(&older.sigs);
  older.num_windows = num_windows;
  older.end_frame = fresh.end_frame;
  older.end_time = fresh.end_time;
}

sketch::SignaturePool::Handle CopyDetector::WindowSignature(
    int q, const sketch::Sketch& wsk) {
  sketch::SignaturePool::Handle& h = scratch_.window_sig[static_cast<size_t>(q)];
  if (h == sketch::SignaturePool::kInvalidHandle) {
    // Not counted in bitsig_builds, which keeps Fig. 5's meaning (R_L
    // survivors); the cost shows in the combine span.
    h = sig_pool_->Allocate();
    sig_pool_->BuildFromSketches(h, wsk, portfolio_->query(q).sketch);
    scratch_.window_sig_set.push_back(q);
  }
  return h;
}

void CopyDetector::ReleaseWindowSignatures() {
  for (int q : scratch_.window_sig_set) {
    sketch::SignaturePool::Handle& h = scratch_.window_sig[static_cast<size_t>(q)];
    sig_pool_->Free(h);
    h = sketch::SignaturePool::kInvalidHandle;
  }
  scratch_.window_sig_set.clear();
}

void CopyDetector::MergeSketch(SketchCand& older, const SketchCand& newer) {
  sketch_pool_->CombineMin(older.sketch, newer.sketch);
  ++stats_.sketch_combines;
  if (config_.use_index) {
    std::vector<int>& merged = scratch_.merge_related;
    merged.clear();
    std::set_union(older.related.begin(), older.related.end(),
                   newer.related.begin(), newer.related.end(),
                   std::back_inserter(merged));
    older.related.swap(merged);
  }
  older.num_windows += newer.num_windows;
  older.end_frame = newer.end_frame;
  older.end_time = newer.end_time;
}

template <typename ForEachFn>
void CopyDetector::TestBitCands(ForEachFn&& for_each) {
  // One NumEqualBatch over the flattened handles of every candidate
  // for_each visits — the SIMD backend evaluates 4–8 slots per vector pass
  // and prefetches across candidate boundaries — then each candidate's
  // walk in visit order.
  sketch::SignaturePool& pool = *sig_pool_;
  std::vector<sketch::SignaturePool::Handle>& hs = scratch_.handle_buf;
  std::vector<int>& eq = scratch_.eq_buf;
  hs.clear();
  for_each([&](BitCand& c) {
    for (const SigRef& s : c.sigs) hs.push_back(s.sig);
  });
  eq.resize(hs.size());
  pool.NumEqualBatch(hs.data(), hs.size(), eq.data());
  const int* caps = portfolio_->window_caps();
  const int* c_eq = eq.data();
  for_each([&](BitCand& c) {
    const size_t n = c.sigs.size();
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      const SigRef s = c.sigs[i];
      // caps[q] is 0 once unsubscribed, so one packed-array compare covers
      // both the active check and the per-query λL expiry.
      if (c.num_windows > caps[s.q]) {
        pool.Free(s.sig);
        continue;
      }
      const double sim = static_cast<double>(c_eq[i]) / config_.K;
      if (sim >= config_.delta) {
        EmitMatch(s.q, c.start_frame, c.end_frame, c.start_time, c.end_time, sim);
      }
      c.sigs[out++] = s;
    }
    c.sigs.resize(out);
    c_eq += n;
  });
}

bool CopyDetector::TestSketchCand(SketchCand& c) {
  const Portfolio& portfolio = *portfolio_;
  auto test_one = [&](int q_ord) {
    const Portfolio::QueryRec& q = portfolio.query(q_ord);
    if (!q.active) return;
    if (c.num_windows > q.max_windows) return;
    ++stats_.sketch_compares;
    const double sim = sketch_pool_->SimilarityAgainst(c.sketch, q.sketch);
    if (sim >= config_.delta) {
      EmitMatch(q_ord, c.start_frame, c.end_frame, c.start_time, c.end_time, sim);
    }
  };
  if (config_.use_index) {
    for (int q : c.related) test_one(q);
  } else {
    for (int q = 0; q < portfolio.num_ordinals(); ++q) test_one(q);
  }
  return true;
}

void CopyDetector::AssignBit(BitCand* dst, const BitCand& src) {
  dst->num_windows = src.num_windows;
  dst->start_frame = src.start_frame;
  dst->end_frame = src.end_frame;
  dst->start_time = src.start_time;
  dst->end_time = src.end_time;
  dst->sigs.clear();
  for (const SigRef& s : src.sigs) {
    dst->sigs.push_back(SigRef{s.q, sig_pool_->Clone(s.sig)});
  }
}

void CopyDetector::AssignSketch(SketchCand* dst, const SketchCand& src) {
  dst->num_windows = src.num_windows;
  dst->start_frame = src.start_frame;
  dst->end_frame = src.end_frame;
  dst->start_time = src.start_time;
  dst->end_time = src.end_time;
  dst->sketch = sketch_pool_->Allocate();  // shell arrives retired
  sketch_pool_->Copy(dst->sketch, src.sketch);
  dst->related.assign(src.related.begin(), src.related.end());
}

void CopyDetector::RetireBit(BitCand* c) {
  for (const SigRef& s : c->sigs) sig_pool_->Free(s.sig);
  c->sigs.clear();
}

void CopyDetector::RetireSketch(SketchCand* c) {
  if (c->sketch != sketch::SketchPool::kInvalidHandle) {
    sketch_pool_->Free(c->sketch);
    c->sketch = sketch::SketchPool::kInvalidHandle;
  }
  c->related.clear();
}

// --- per-window dispatch ----------------------------------------------------

void CopyDetector::ProcessWindow(const stream::BasicWindow& window) {
  VCD_OBS_SPAN(metrics_.window_process_ns);
  SizeFromPortfolio();
  const int64_t window_index = stats_.windows;  // 0-based, pre-increment
  ++stats_.windows;
  if (window.degraded) {
    // The window's id set is incomplete: a sketch of it would be garbage
    // and an OR into candidate signatures is irreversible. Skip combination
    // entirely — candidates neither absorb this window nor advance, and
    // the arenas/index are untouched, so ValidateState holds unchanged.
    ++stats_.degraded_windows;
  } else if (degrade_.probe_every_n > 1 &&
             window_index % degrade_.probe_every_n != 0) {
    // QoS degraded mode: probe only every Nth window. Skipping follows the
    // degraded-window path — candidates neither absorb nor advance — so
    // every invariant ValidateState checks holds unchanged; the counter is
    // separate because the input was fine, the governor chose not to spend
    // the work. Keyed off the deterministic window index, never wall time.
    ++stats_.qos_skipped_windows;
  } else {
    CombineAndTest(window);
  }
  RecordWindowStats();
  PublishWindowMetrics();
  if (config_.validate_state) VCD_CHECK_OK(ValidateState());
}

void CopyDetector::CombineAndTest(const stream::BasicWindow& window) {
  // Stage spans are per *window*, not per merge — the combine span covers
  // the whole Step; the test span covers the full candidate sweep (in the
  // geometric order that sweep interleaves suffix merges with tests, so
  // its combine share lands in the test span — documented in DESIGN.md §13).
  {
    VCD_OBS_SPAN(metrics_.sketch_build_ns);
    sketcher_.FromSequenceInto(window.ids, &scratch_.window_sketch);
  }
  const sketch::Sketch& wsk = scratch_.window_sketch;
  const bool bit = config_.representation == Representation::kBit;
  const bool seq = config_.order == CombinationOrder::kSequential;
  const int max_windows = portfolio_->global_max_windows();
  if (bit) {
    const auto init = [&](BitCand& c) { InitBitCand(&c, window, wsk); };
    const auto merge = [&](BitCand& older, const BitCand& newer) {
      MergeGeoBit(older, newer);
    };
    const auto retire = [&](BitCand& c) { RetireBit(&c); };
    if (seq) {
      {
        VCD_OBS_SPAN(metrics_.combine_ns);
        seq_bit_.Step(
            max_windows, init,
            [&](BitCand& older, const BitCand& fresh) {
              MergeSeqBit(older, fresh, wsk);
            },
            retire);
        ReleaseWindowSignatures();
      }
      VCD_OBS_SPAN(metrics_.test_ns);
      TestBitCands([&](const auto& fn) { seq_bit_.ForEach(fn); });
      seq_bit_.RemoveIf([](const BitCand& c) { return c.sigs.empty(); },
                        retire);
    } else {
      {
        VCD_OBS_SPAN(metrics_.combine_ns);
        geo_bit_.Step(max_windows, init, merge, retire);
      }
      VCD_OBS_SPAN(metrics_.test_ns);
      geo_bit_.VisitSuffixesInto(
          max_windows, &scratch_.bit_cum, &scratch_.bit_tmp,
          [&](BitCand& dst, const BitCand& src) {
            AssignBit(&dst, src);
          },
          merge,
          [&](BitCand& c) { TestBitCands([&](const auto& fn) { fn(c); }); },
          retire);
      // Blocks are kept even when all their signatures prune away: their
      // window spans still participate in suffix-length accounting.
    }
  } else {
    const auto init = [&](SketchCand& c) {
      InitSketchCand(&c, window, wsk);
    };
    const auto merge = [&](SketchCand& older, const SketchCand& newer) {
      MergeSketch(older, newer);
    };
    const auto retire = [&](SketchCand& c) { RetireSketch(&c); };
    if (seq) {
      {
        VCD_OBS_SPAN(metrics_.combine_ns);
        seq_sketch_.Step(max_windows, init, merge, retire);
      }
      VCD_OBS_SPAN(metrics_.test_ns);
      seq_sketch_.ForEach([&](SketchCand& c) { TestSketchCand(c); });
    } else {
      {
        VCD_OBS_SPAN(metrics_.combine_ns);
        geo_sketch_.Step(max_windows, init, merge, retire);
      }
      VCD_OBS_SPAN(metrics_.test_ns);
      geo_sketch_.VisitSuffixesInto(
          max_windows, &scratch_.sketch_cum, &scratch_.sketch_tmp,
          [&](SketchCand& dst, const SketchCand& src) {
            AssignSketch(&dst, src);
          },
          merge, [&](SketchCand& c) { TestSketchCand(c); }, retire);
    }
  }
}

void CopyDetector::RecordWindowStats() {
  int64_t sig_count = 0;
  int64_t cand_count = 0;
  int longest = 0;
  const bool bit = config_.representation == Representation::kBit;
  const bool seq = config_.order == CombinationOrder::kSequential;
  const auto count_bit = [&](const auto& c) {
    sig_count += static_cast<int64_t>(c.sigs.size());
    ++cand_count;
    longest = std::max(longest, c.num_windows);
  };
  // Without the index a Sketch candidate is tested against every
  // subscribed query; removed ordinals do not count, so a detector restored
  // onto a portfolio that never held them reports the same stats.
  const auto count_sketch = [&](const auto& c) {
    sig_count += config_.use_index ? static_cast<int64_t>(c.related.size())
                                   : static_cast<int64_t>(portfolio_->num_queries());
    ++cand_count;
    longest = std::max(longest, c.num_windows);
  };
  if (bit && seq) {
    seq_bit_.ForEach(count_bit);
  } else if (bit) {
    geo_bit_.ForEach(count_bit);
  } else if (seq) {
    seq_sketch_.ForEach(count_sketch);
  } else {
    geo_sketch_.ForEach(count_sketch);
  }
  stats_.signatures_per_window.Add(static_cast<double>(sig_count));
  stats_.candidates_per_window.Add(static_cast<double>(cand_count));
  last_cand_count_ = cand_count;
  const int max_windows = portfolio_->global_max_windows();
  if (longest <= max_windows) span_bound_ = max_windows;
  const size_t slots = bit ? sig_pool_->live_count() : sketch_pool_->live_count();
  stats_.pool_slots_per_window.Add(static_cast<double>(slots));
}

void CopyDetector::PublishWindowMetrics() {
  // One delta batch per window, derived purely from stats_ and the
  // candidate census (pinned by the detector golden and metrics-equivalence
  // tests), so the published counters are kernel-ISA-independent too.
  if (!obs::kEnabled || metrics_.windows_total == nullptr) return;
  const auto delta = [](int64_t now, int64_t* prev) {
    const int64_t d = now - *prev;
    *prev = now;
    return d;
  };
  metrics_.windows_total->Inc(delta(stats_.windows, &published_.windows));
  const int64_t degraded =
      delta(stats_.degraded_windows, &published_.degraded_windows);
  metrics_.degraded_windows_total->Inc(degraded);
  const int64_t qos_skipped =
      delta(stats_.qos_skipped_windows, &published_.qos_skipped_windows);
  if (metrics_.qos_skipped_windows_total != nullptr) {
    metrics_.qos_skipped_windows_total->Inc(qos_skipped);
  }
  const int64_t builds = delta(stats_.bitsig_builds, &published_.bitsig_builds);
  metrics_.bitsig_builds_total->Inc(builds);
  const int64_t ors = delta(stats_.bitsig_ors, &published_.bitsig_ors);
  metrics_.bitsig_ors_total->Inc(ors);
  metrics_.sketch_combines_total->Inc(
      delta(stats_.sketch_combines, &published_.sketch_combines));
  metrics_.sketch_compares_total->Inc(
      delta(stats_.sketch_compares, &published_.sketch_compares));
  const int64_t pruned =
      delta(stats_.candidates_pruned, &published_.candidates_pruned);
  metrics_.prune_hits_total->Inc(pruned);
  // A "miss" is a signature build/extend that pruning did not eliminate —
  // the work Lemma 2 failed to save this window.
  const int64_t misses = builds + ors - pruned;
  metrics_.prune_misses_total->Inc(misses > 0 ? misses : 0);
  metrics_.matches_total->Inc(
      delta(static_cast<int64_t>(matches_.size()), &published_.matches));
  // Candidate churn: every combined window admits exactly one fresh
  // candidate; whatever the census lost beyond that retired (expired at
  // λL, pruned empty, or absorbed by a merge). Degraded and QoS-skipped
  // windows admit nothing — combination never ran.
  const int64_t admitted = (degraded > 0 || qos_skipped > 0) ? 0 : 1;
  metrics_.candidates_admitted_total->Inc(admitted);
  const int64_t expired =
      published_.cand_count + admitted - last_cand_count_;
  metrics_.candidates_expired_total->Inc(expired > 0 ? expired : 0);
  published_.cand_count = last_cand_count_;
}

Status CopyDetector::ValidateState() const {
  VCD_RETURN_IF_ERROR(portfolio_->ValidateState());
  const int num_ordinals = portfolio_->num_ordinals();
  const auto check_span = [&](int num_windows) -> Status {
    if (num_windows < 1 || num_windows > span_bound_) {
      return Status::Internal("candidate num_windows " + std::to_string(num_windows) +
                              " outside [1, " + std::to_string(span_bound_) +
                              "] (λL expiry bound)");
    }
    return Status::OK();
  };
  const auto check_ordinals = [&](int q, int prev_q) -> Status {
    if (q < 0 || q >= num_ordinals) {
      return Status::Internal("signature for out-of-range query ordinal " +
                              std::to_string(q));
    }
    if (q <= prev_q) {
      return Status::Internal("signature list not strictly sorted by ordinal");
    }
    return Status::OK();
  };
  // Every referenced slot must be live, well-formed when materialized, and
  // — counted across all candidates — account for exactly the pools' live
  // slots (no leaked and no doubly-owned handles).
  size_t bit_handles = 0;
  size_t sketch_handles = 0;
  const auto check_bit = [&](const BitCand& c) -> Status {
    VCD_RETURN_IF_ERROR(check_span(c.num_windows));
    int prev_q = -1;
    for (const SigRef& s : c.sigs) {
      VCD_RETURN_IF_ERROR(check_ordinals(s.q, prev_q));
      prev_q = s.q;
      if (!sig_pool_->IsLive(s.sig)) {
        return Status::Internal("candidate references a dead signature slot");
      }
      VCD_RETURN_IF_ERROR(sig_pool_->ToBitSignature(s.sig).Validate());
      const int less = sig_pool_->NumLess(s.sig);
      if (less > max_less_) {
        return Status::Internal("signature for query ordinal " + std::to_string(s.q) +
                                " has " + std::to_string(less) +
                                " \"<\" positions, over Lemma 2's bound " +
                                std::to_string(max_less_));
      }
      ++bit_handles;
    }
    return Status::OK();
  };
  const auto check_sketch = [&](const SketchCand& c) -> Status {
    VCD_RETURN_IF_ERROR(check_span(c.num_windows));
    if (!sketch_pool_->IsLive(c.sketch)) {
      return Status::Internal("candidate references a dead sketch slot");
    }
    ++sketch_handles;
    int prev_q = -1;
    for (int q : c.related) {
      if (q < 0 || q >= num_ordinals) {
        return Status::Internal("related list has out-of-range query ordinal " +
                                std::to_string(q));
      }
      if (q <= prev_q) {
        return Status::Internal("related list not strictly sorted");
      }
      prev_q = q;
    }
    return Status::OK();
  };

  for (size_t i = 0; i < seq_bit_.size(); ++i) {
    VCD_RETURN_IF_ERROR(check_bit(seq_bit_.at(i)));
  }
  for (const auto& slot : geo_bit_.ladder()) {
    if (slot.has_value()) VCD_RETURN_IF_ERROR(check_bit(*slot));
  }
  for (size_t i = 0; i < seq_sketch_.size(); ++i) {
    VCD_RETURN_IF_ERROR(check_sketch(seq_sketch_.at(i)));
  }
  for (const auto& slot : geo_sketch_.ladder()) {
    if (slot.has_value()) VCD_RETURN_IF_ERROR(check_sketch(*slot));
  }
  if (!scratch_.window_sig_set.empty()) {
    return Status::Internal("completion signatures outlived their window");
  }
  if (sig_pool_.has_value()) {
    VCD_RETURN_IF_ERROR(sig_pool_->Validate());
    if (bit_handles != sig_pool_->live_count()) {
      return Status::Internal(
          "signature pool live count " + std::to_string(sig_pool_->live_count()) +
          " does not match " + std::to_string(bit_handles) +
          " handles held by candidates");
    }
  }
  if (sketch_pool_.has_value()) {
    VCD_RETURN_IF_ERROR(sketch_pool_->Validate());
    if (sketch_handles != sketch_pool_->live_count()) {
      return Status::Internal(
          "sketch pool live count " + std::to_string(sketch_pool_->live_count()) +
          " does not match " + std::to_string(sketch_handles) +
          " handles held by candidates");
    }
  }
  return Status::OK();
}

// --- checkpoint/restore -----------------------------------------------------

DetectorCkptState CopyDetector::ExportCkptState() const {
  DetectorCkptState st;
  st.saw_frame = saw_frame_;
  st.max_timestamp = max_timestamp_;
  st.assembler = assembler_->ExportCkpt();
  for (int q = 0; q < portfolio_->num_ordinals(); ++q) {
    if (!portfolio_->query(q).active) continue;
    // An ordinal added since the last window has no cooldown entry yet.
    const double suppress_until = static_cast<size_t>(q) < suppress_until_.size()
                                      ? suppress_until_[static_cast<size_t>(q)]
                                      : -1.0;
    st.queries.push_back(
        DetectorCkptState::QueryState{portfolio_->query(q).id, suppress_until});
  }
  st.stats = stats_;

  const auto base_of = [](const auto& c, int32_t level) {
    CkptCandidate out;
    out.ladder_level = level;
    out.num_windows = c.num_windows;
    out.start_frame = c.start_frame;
    out.end_frame = c.end_frame;
    out.start_time = c.start_time;
    out.end_time = c.end_time;
    return out;
  };
  const auto words_of = [](const sketch::BitSignature& sig) {
    const BitVector& bits = sig.bits();
    return std::vector<uint64_t>(bits.words(), bits.words() + bits.num_words());
  };
  const auto export_bit = [&](const BitCand& c, int32_t level) {
    CkptCandidate out = base_of(c, level);
    for (const SigRef& s : c.sigs) {
      out.sigs.push_back(CkptCandidate::Sig{
          portfolio_->query(s.q).id,
          words_of(sig_pool_->ToBitSignature(s.sig))});
    }
    st.candidates.push_back(std::move(out));
  };
  const auto export_sketch = [&](const SketchCand& c, int32_t level) {
    CkptCandidate out = base_of(c, level);
    out.mins = sketch_pool_->ToSketch(c.sketch).mins;
    for (int q : c.related) {
      out.related_ids.push_back(portfolio_->query(q).id);
    }
    st.candidates.push_back(std::move(out));
  };
  const auto export_ladder = [&](const auto& geo, const auto& fn) {
    const auto& ladder = geo.ladder();
    for (size_t lv = 0; lv < ladder.size(); ++lv) {
      if (ladder[lv].has_value()) fn(*ladder[lv], static_cast<int32_t>(lv));
    }
  };

  const bool bit = config_.representation == Representation::kBit;
  const bool seq = config_.order == CombinationOrder::kSequential;
  if (bit && seq) {
    for (size_t i = 0; i < seq_bit_.size(); ++i) export_bit(seq_bit_.at(i), -1);
  } else if (bit) {
    export_ladder(geo_bit_, export_bit);
  } else if (seq) {
    for (size_t i = 0; i < seq_sketch_.size(); ++i) {
      export_sketch(seq_sketch_.at(i), -1);
    }
  } else {
    export_ladder(geo_sketch_, export_sketch);
  }
  return st;
}

Status CopyDetector::RestoreCkptState(const DetectorCkptState& st) {
  if (saw_frame_ || stats_.key_frames != 0 || !matches_.empty()) {
    return Status::FailedPrecondition(
        "RestoreCkptState requires a detector that has seen no stream frames");
  }
  SizeFromPortfolio();
  for (const DetectorCkptState::QueryState& qs : st.queries) {
    const int q = portfolio_->OrdinalOf(qs.id);
    if (q < 0) {
      return Status::FailedPrecondition(
          "snapshot references query id " + std::to_string(qs.id) +
          " which is not subscribed on this detector");
    }
    suppress_until_[static_cast<size_t>(q)] = qs.suppress_until;
  }
  saw_frame_ = st.saw_frame;
  max_timestamp_ = st.max_timestamp;
  assembler_->RestoreCkpt(st.assembler);
  stats_ = st.stats;

  const bool bit = config_.representation == Representation::kBit;
  const bool seq = config_.order == CombinationOrder::kSequential;
  // Signatures are 2K bits (two relation bits per hash position, §V-A).
  const size_t sig_words = (2 * static_cast<size_t>(config_.K) + 63) / 64;
  int32_t prev_level = -1;
  int64_t restored = 0;
  // The snapshot does not record the bound its candidates were built under;
  // a candidate longer than today's bound outlived a RemoveQuery (see
  // span_bound_), so the restored bound covers it.
  span_bound_ = portfolio_->global_max_windows();
  for (const CkptCandidate& c : st.candidates) {
    span_bound_ = std::max(span_bound_, c.num_windows);
    if (seq != (c.ladder_level < 0)) {
      return Status::Corruption(
          "snapshot candidate order does not match the configured "
          "combination order");
    }
    if (!seq) {
      if (c.ladder_level <= prev_level) {
        return Status::Corruption("snapshot ladder levels not ascending");
      }
      prev_level = c.ladder_level;
    }
    if (bit) {
      if (!c.mins.empty()) {
        return Status::Corruption("bit-representation snapshot carries sketch mins");
      }
      for (const CkptCandidate::Sig& s : c.sigs) {
        if (s.words.size() != sig_words) {
          return Status::Corruption(
              "snapshot signature has " + std::to_string(s.words.size()) +
              " words, expected " + std::to_string(sig_words));
        }
      }
      BitCand out;
      out.num_windows = c.num_windows;
      out.start_frame = c.start_frame;
      out.end_frame = c.end_frame;
      out.start_time = c.start_time;
      out.end_time = c.end_time;
      for (const CkptCandidate::Sig& s : c.sigs) {
        const int q = portfolio_->OrdinalOf(s.query_id);
        if (q < 0) continue;  // query removed since the snapshot
        const sketch::SignaturePool::Handle h = sig_pool_->Allocate();
        for (size_t w = 0; w < sig_words; ++w) {
          sig_pool_->word(h, w) = s.words[w];
        }
        out.sigs.push_back(SigRef{q, h});
      }
      if (seq) {
        seq_bit_.RestoreBack(std::move(out));
      } else {
        auto& ladder = geo_bit_.ladder();
        if (ladder.size() <= static_cast<size_t>(c.ladder_level)) {
          ladder.resize(static_cast<size_t>(c.ladder_level) + 1);
        }
        ladder[static_cast<size_t>(c.ladder_level)] = std::move(out);
      }
    } else {
      if (!c.sigs.empty()) {
        return Status::Corruption(
            "sketch-representation snapshot carries bit signatures");
      }
      if (c.mins.size() != static_cast<size_t>(config_.K)) {
        return Status::Corruption(
            "snapshot sketch has " + std::to_string(c.mins.size()) +
            " mins, expected K=" + std::to_string(config_.K));
      }
      std::vector<int> related;
      for (int id : c.related_ids) {
        const int q = portfolio_->OrdinalOf(id);
        if (q >= 0) related.push_back(q);
      }
      std::sort(related.begin(), related.end());
      SketchCand out;
      out.num_windows = c.num_windows;
      out.start_frame = c.start_frame;
      out.end_frame = c.end_frame;
      out.start_time = c.start_time;
      out.end_time = c.end_time;
      sketch::Sketch sk;  // NOLINT(vcd-pooled-hotpath): restore, cold
      sk.mins = c.mins;
      out.sketch = sketch_pool_->Allocate();
      sketch_pool_->Assign(out.sketch, sk);
      out.related = std::move(related);
      if (seq) {
        seq_sketch_.RestoreBack(std::move(out));
      } else {
        auto& ladder = geo_sketch_.ladder();
        if (ladder.size() <= static_cast<size_t>(c.ladder_level)) {
          ladder.resize(static_cast<size_t>(c.ladder_level) + 1);
        }
        ladder[static_cast<size_t>(c.ladder_level)] = std::move(out);
      }
    }
    ++restored;
  }

  // Metrics republish from here: the fresh process's obs counters cover
  // post-restore activity only, while stats_ carry the full-run totals the
  // equivalence tests compare.
  published_.windows = stats_.windows;
  published_.degraded_windows = stats_.degraded_windows;
  published_.qos_skipped_windows = stats_.qos_skipped_windows;
  published_.bitsig_builds = stats_.bitsig_builds;
  published_.bitsig_ors = stats_.bitsig_ors;
  published_.sketch_combines = stats_.sketch_combines;
  published_.sketch_compares = stats_.sketch_compares;
  published_.candidates_pruned = stats_.candidates_pruned;
  published_.cand_count = restored;
  last_cand_count_ = restored;
  return ValidateState();
}

}  // namespace vcd::core
