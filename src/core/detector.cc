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
  // A merge's adoptions and a window's completions depend on which queries
  // a window leaves out of R_L — events warmup may never see, so these
  // buffers cannot rely on a high-water mark. One entry per query bounds
  // the merge's output list and the window's completions.
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
  bit_cands_.Clear(retire_bit);
  sketch_cands_.Clear(retire_sketch);
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
  if (config_.order == CombinationOrder::kGeometric) {
    c->sketch = sketch_pool_->Allocate();  // shell arrives retired (kInvalid)
    sketch_pool_->Assign(c->sketch, wsk);
  }
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

void CopyDetector::MergeBit(BitCand& older, const BitCand& fresh,
                            const sketch::Sketch& wsk) {
  sketch::SignaturePool& pool = *sig_pool_;
  std::vector<SigRef>& merged = scratch_.merge_sigs;
  std::vector<sketch::SignaturePool::Handle>& dst = scratch_.or_dst;
  std::vector<sketch::SignaturePool::Handle>& src = scratch_.or_src;
  merged.clear();
  dst.clear();
  src.clear();
  const int num_windows = older.num_windows + fresh.num_windows;
  const int* caps = portfolio_->window_caps();
  const bool adopts = older.sketch != sketch::SketchPool::kInvalidHandle;
  if (adopts) {
    sketch_pool_->CombineMin(older.sketch, fresh.sketch);
    ++stats_.sketch_combines;
  }
  // A query only fresh holds: adopted with the signature of older's span,
  // now including this window, unless Lemma 2 rules the span out. Without a
  // sketch, fresh keeps it as the suffix that starts at this window.
  const auto adopt = [&](int q) {
    if (!adopts || num_windows > caps[q]) return;
    const sketch::SignaturePool::Handle h = pool.Allocate();
    pool.BuildFromSketches(h, sketch_pool_->mins(older.sketch),
                           portfolio_->query(q).sketch);
    if (pool.NumLess(h) > max_less_) {
      pool.Free(h);
      return;
    }
    merged.push_back(SigRef{q, h});
  };
  size_t j = 0;
  for (const SigRef s : older.sigs) {
    for (; j < fresh.sigs.size() && fresh.sigs[j].q < s.q; ++j) adopt(fresh.sigs[j].q);
    // caps[q] is 0 once unsubscribed: the test step's expiry, taken before
    // a completion would read a freed sketch.
    if (num_windows > caps[s.q]) {
      pool.Free(s.sig);
      continue;
    }
    const bool both = j < fresh.sigs.size() && fresh.sigs[j].q == s.q;
    dst.push_back(s.sig);
    src.push_back(both ? fresh.sigs[j++].sig : WindowSignature(s.q, wsk));
    merged.push_back(s);
  }
  for (; j < fresh.sigs.size(); ++j) adopt(fresh.sigs[j].q);
  older.sigs.swap(merged);
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

template <typename C, typename Fn>
void CopyDetector::ForEachInTestOrder(stream::SequentialCandidates<C>& cands,
                                      Fn&& fn) {
  if (config_.order == CombinationOrder::kSequential) {
    cands.ForEach(fn);
  } else {
    cands.ForEachNewestFirst(fn);
  }
}

void CopyDetector::TestBitCands() {
  // One NumEqualBatch over the flattened handles of every candidate — the
  // SIMD backend evaluates 4–8 slots per vector pass and prefetches across
  // candidate boundaries — then each candidate's walk in the same order.
  sketch::SignaturePool& pool = *sig_pool_;
  std::vector<sketch::SignaturePool::Handle>& hs = scratch_.handle_buf;
  std::vector<int>& eq = scratch_.eq_buf;
  hs.clear();
  ForEachInTestOrder(bit_cands_, [&](BitCand& c) {
    for (const SigRef& s : c.sigs) hs.push_back(s.sig);
  });
  eq.resize(hs.size());
  pool.NumEqualBatch(hs.data(), hs.size(), eq.data());
  const int* caps = portfolio_->window_caps();
  const int* c_eq = eq.data();
  ForEachInTestOrder(bit_cands_, [&](BitCand& c) {
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

void CopyDetector::TestSketchCand(SketchCand& c) {
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
}

void CopyDetector::RetireBit(BitCand* c) {
  for (const SigRef& s : c->sigs) sig_pool_->Free(s.sig);
  c->sigs.clear();
  if (c->sketch != sketch::SketchPool::kInvalidHandle) {
    sketch_pool_->Free(c->sketch);
    c->sketch = sketch::SketchPool::kInvalidHandle;
  }
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
  // Stage spans are per *window*, not per merge: the combine span covers
  // the whole Step, the test span the sweep over the live candidates, in
  // either order.
  {
    VCD_OBS_SPAN(metrics_.sketch_build_ns);
    sketcher_.FromSequenceInto(window.ids, &scratch_.window_sketch);
  }
  const sketch::Sketch& wsk = scratch_.window_sketch;
  const int max_windows = portfolio_->global_max_windows();
  // Geometric order keeps a candidate only while its length is a block
  // boundary of the binary counter over the combined windows, this one
  // included (DESIGN.md §6); Sequential order keeps every length.
  const bool seq = config_.order == CombinationOrder::kSequential;
  const int64_t combined =
      stats_.windows - stats_.degraded_windows - stats_.qos_skipped_windows;
  const auto keep = [&](int length) {
    return seq || stream::IsCounterBoundary(combined, length);
  };
  if (config_.representation == Representation::kBit) {
    const auto retire = [&](BitCand& c) { RetireBit(&c); };
    {
      VCD_OBS_SPAN(metrics_.combine_ns);
      bit_cands_.Step(
          max_windows, keep, [&](BitCand& c) { InitBitCand(&c, window, wsk); },
          [&](BitCand& older, const BitCand& fresh) { MergeBit(older, fresh, wsk); },
          retire);
      ReleaseWindowSignatures();
    }
    VCD_OBS_SPAN(metrics_.test_ns);
    TestBitCands();
    // A candidate left without signatures can match nothing again, unless
    // it holds a sketch to adopt queries from later windows.
    bit_cands_.RemoveIf(
        [](const BitCand& c) {
          return c.sigs.empty() && c.sketch == sketch::SketchPool::kInvalidHandle;
        },
        retire);
  } else {
    {
      VCD_OBS_SPAN(metrics_.combine_ns);
      sketch_cands_.Step(
          max_windows, keep, [&](SketchCand& c) { InitSketchCand(&c, window, wsk); },
          [&](SketchCand& older, const SketchCand& fresh) { MergeSketch(older, fresh); },
          [&](SketchCand& c) { RetireSketch(&c); });
    }
    VCD_OBS_SPAN(metrics_.test_ns);
    ForEachInTestOrder(sketch_cands_, [&](SketchCand& c) { TestSketchCand(c); });
  }
}

void CopyDetector::RecordWindowStats() {
  int64_t sig_count = 0;
  int64_t cand_count = 0;
  int longest = 0;
  const bool bit = config_.representation == Representation::kBit;
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
  if (bit) {
    bit_cands_.ForEach(count_bit);
  } else {
    sketch_cands_.ForEach(count_sketch);
  }
  stats_.signatures_per_window.Add(static_cast<double>(sig_count));
  stats_.candidates_per_window.Add(static_cast<double>(cand_count));
  last_cand_count_ = cand_count;
  const int max_windows = portfolio_->global_max_windows();
  if (longest <= max_windows) span_bound_ = max_windows;
  // A Geometric Bit candidate holds slots in both pools.
  const size_t slots = sig_pool_->live_count() + sketch_pool_->live_count();
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
  // λL, pruned empty, or, in Geometric order, off a counter boundary, the
  // fresh one included). Degraded and QoS-skipped windows admit nothing —
  // combination never ran.
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
  const bool seq = config_.order == CombinationOrder::kSequential;
  const int64_t combined =
      stats_.windows - stats_.degraded_windows - stats_.qos_skipped_windows;
  int prev_windows = std::numeric_limits<int>::max();
  const auto check_span = [&](int num_windows) -> Status {
    if (num_windows < 1 || num_windows > span_bound_) {
      return Status::Internal("candidate num_windows " + std::to_string(num_windows) +
                              " outside [1, " + std::to_string(span_bound_) +
                              "] (λL expiry bound)");
    }
    if (num_windows >= prev_windows) {
      return Status::Internal("candidate lengths not strictly decreasing from "
                              "the oldest candidate to the newest");
    }
    prev_windows = num_windows;
    if (!seq && !stream::IsCounterBoundary(combined, num_windows)) {
      return Status::Internal("Geometric candidate of " + std::to_string(num_windows) +
                              " windows is not a block boundary of the counter at " +
                              std::to_string(combined) + " combined windows");
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
  const auto check_sketch_slot = [&](sketch::SketchPool::Handle h) -> Status {
    if (!sketch_pool_->IsLive(h)) {
      return Status::Internal("candidate references a dead sketch slot");
    }
    ++sketch_handles;
    return Status::OK();
  };
  const auto check_bit = [&](const BitCand& c) -> Status {
    VCD_RETURN_IF_ERROR(check_span(c.num_windows));
    if ((c.sketch != sketch::SketchPool::kInvalidHandle) == seq) {
      return Status::Internal(seq ? "Sequential Bit candidate holds a sketch slot"
                                  : "Geometric Bit candidate holds no sketch slot");
    }
    if (!seq) VCD_RETURN_IF_ERROR(check_sketch_slot(c.sketch));
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
    VCD_RETURN_IF_ERROR(check_sketch_slot(c.sketch));
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

  // Only the configured representation's list holds candidates.
  for (size_t i = 0; i < bit_cands_.size(); ++i) {
    VCD_RETURN_IF_ERROR(check_bit(bit_cands_.at(i)));
  }
  for (size_t i = 0; i < sketch_cands_.size(); ++i) {
    VCD_RETURN_IF_ERROR(check_sketch(sketch_cands_.at(i)));
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

  const auto base_of = [](const auto& c) {
    CkptCandidate out;
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
  const auto mins_of = [&](sketch::SketchPool::Handle h) {
    return sketch_pool_->ToSketch(h).mins;
  };
  bit_cands_.ForEach([&](const BitCand& c) {
    CkptCandidate out = base_of(c);
    for (const SigRef& s : c.sigs) {
      out.sigs.push_back(CkptCandidate::Sig{
          portfolio_->query(s.q).id,
          words_of(sig_pool_->ToBitSignature(s.sig))});
    }
    if (c.sketch != sketch::SketchPool::kInvalidHandle) out.mins = mins_of(c.sketch);
    st.candidates.push_back(std::move(out));
  });
  sketch_cands_.ForEach([&](const SketchCand& c) {
    CkptCandidate out = base_of(c);
    out.mins = mins_of(c.sketch);
    for (int q : c.related) {
      out.related_ids.push_back(portfolio_->query(q).id);
    }
    st.candidates.push_back(std::move(out));
  });
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
  // Signatures are 2K bits (two relation bits per hash position, §V-A).
  const size_t sig_words = (2 * static_cast<size_t>(config_.K) + 63) / 64;
  const auto check_mins = [&](const std::vector<uint64_t>& mins) -> Status {
    if (mins.size() != static_cast<size_t>(config_.K)) {
      return Status::Corruption("snapshot sketch has " + std::to_string(mins.size()) +
                                " mins, expected K=" + std::to_string(config_.K));
    }
    return Status::OK();
  };
  const auto restore_sketch = [&](const std::vector<uint64_t>& mins) {
    const sketch::SketchPool::Handle h = sketch_pool_->Allocate();
    std::copy(mins.begin(), mins.end(), sketch_pool_->mins(h));
    return h;
  };
  int64_t restored = 0;
  // The snapshot does not record the bound its candidates were built under;
  // a candidate longer than today's bound outlived a RemoveQuery (see
  // span_bound_), so the restored bound covers it. Which lengths the
  // combination order allows, and whether a Bit candidate must hold a
  // sketch, ValidateState checks at the end.
  span_bound_ = portfolio_->global_max_windows();
  for (const CkptCandidate& c : st.candidates) {
    span_bound_ = std::max(span_bound_, c.num_windows);
    if (bit) {
      if (!c.mins.empty()) VCD_RETURN_IF_ERROR(check_mins(c.mins));
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
      if (!c.mins.empty()) out.sketch = restore_sketch(c.mins);
      bit_cands_.RestoreBack(std::move(out));
    } else {
      if (!c.sigs.empty()) {
        return Status::Corruption(
            "sketch-representation snapshot carries bit signatures");
      }
      VCD_RETURN_IF_ERROR(check_mins(c.mins));
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
      out.sketch = restore_sketch(c.mins);
      out.related = std::move(related);
      sketch_cands_.RestoreBack(std::move(out));
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
