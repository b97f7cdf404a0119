#pragma once

#include <memory>
#include <tuple>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/match.h"
#include "core/portfolio.h"
#include "features/fingerprint.h"
#include "obs/pipeline_metrics.h"
#include "sketch/bit_signature.h"
#include "sketch/minhash.h"
#include "sketch/signature_pool.h"
#include "sketch/sketch_pool.h"
#include "stream/basic_window.h"
#include "stream/combiner.h"
#include "util/stats.h"
#include "util/status.h"
#include "video/partial_decoder.h"

/// \file detector.h
/// The continuous copy detector — the paper's full pipeline (§III–§V):
/// key-frame fingerprinting → basic-window min-hash sketches → (optionally
/// index-probed) related-query lists → candidate combination in Sequential
/// or Geometric order → bit-signature or raw-sketch similarity with Lemma-2
/// pruning → match reports.

namespace vcd::core {

/// Runtime counters exposed for the experiments.
struct DetectorStats {
  int64_t key_frames = 0;           ///< key frames consumed
  int64_t windows = 0;              ///< basic windows completed
  int64_t sketch_combines = 0;      ///< element-wise-min sketch merges
  int64_t sketch_compares = 0;      ///< full K-array sketch comparisons
  int64_t bitsig_ors = 0;           ///< bit-signature OR merges
  int64_t bitsig_builds = 0;        ///< signatures built from raw sketches
  int64_t candidates_pruned = 0;    ///< Lemma-2 removals
  int64_t degraded_frames = 0;      ///< frames consumed without a fingerprint
  int64_t degraded_windows = 0;     ///< windows whose sketch was skipped
  int64_t out_of_order_frames = 0;  ///< frames demoted by the clock-skew guard
  /// Windows not combined/tested because the QoS degraded-mode probe knob
  /// (qos::DegradeKnobs::probe_every_n) skipped them. Distinct from
  /// degraded_windows: the input was fine, the governor chose not to spend
  /// the work.
  int64_t qos_skipped_windows = 0;
  RunningStats signatures_per_window;  ///< Fig. 10's memory metric
  RunningStats candidates_per_window;
  /// Live arena slots after each window — the memory gauge of the flat
  /// candidate storage.
  RunningStats pool_slots_per_window;
};

/// \brief One candidate sequence materialized for checkpoint/restore.
///
/// The representation is config-agnostic: bit candidates carry their raw
/// signature words (and, in Geometric order, their span's min-hash array),
/// sketch candidates their min-hash arrays, and query references are
/// *external* query ids (not ordinals), so a snapshot taken under one
/// kernel ISA restores onto any other with the same detector parameters.
struct CkptCandidate {
  int num_windows = 0;
  int64_t start_frame = 0, end_frame = 0;
  double start_time = 0.0, end_time = 0.0;
  /// Bit representation: one raw signature per related query.
  struct Sig {
    int query_id = 0;
    std::vector<uint64_t> words;  ///< BitVector layout, ⌈2K/64⌉ words
  };
  std::vector<Sig> sigs;         ///< sorted by query ordinal at export
  /// K min-hash values of the span: every Sketch candidate and every
  /// Geometric Bit candidate; empty for a Sequential Bit candidate.
  std::vector<uint64_t> mins;
  std::vector<int> related_ids;  ///< sketch+index: related query ids
};

/// \brief Full mid-stream detector state for checkpoint/restore.
///
/// Everything a fresh detector (same config, its portfolio holding the same
/// queries in export order) needs to continue producing byte-identical
/// matches and stats: the clock-skew guard, the partially accumulated basic window,
/// per-query report-cooldown deadlines, all counters/RunningStats and every
/// live candidate. Reported matches are output, not state: a restored
/// detector reports only the matches after the cut.
struct DetectorCkptState {
  bool saw_frame = false;
  double max_timestamp = 0.0;
  stream::BasicWindowAssembler::CkptState assembler;
  struct QueryState {
    int id = 0;
    double suppress_until = -1.0;
  };
  std::vector<QueryState> queries;
  DetectorStats stats;
  /// Oldest (longest) first, in either combination order.
  std::vector<CkptCandidate> candidates;
};

/// \brief One monitored stream's full checkpointed state: the executor
/// shard's health machine plus the stream's detector state (the STREAMS
/// snapshot section, docs/FORMATS.md).
struct StreamCkpt {
  int stream_id = 0;
  std::string name;
  /// Health machine (parallel/shard.h): state enum as int, fault/clean
  /// streaks, and the frame-count backoff "deadlines" — durations relative
  /// to the snapshot's persisted epoch, so a restored stream resumes its
  /// readmission countdown exactly where the crash interrupted it.
  int health = 0;
  int consecutive_faults = 0;
  int consecutive_clean = 0;
  int64_t quarantine_remaining = 0;
  int64_t backoff_frames = 0;
  /// QoS priority class (qos::Priority as int), copied from the stream's
  /// shed-gate entry. Defaults to kNormal (1).
  int priority = 1;
  DetectorCkptState detector;
};

/// A query prepared for subscription: the sketch of its key-frame cell
/// sequence plus the derived length/duration — everything a detector's
/// AddQuerySketch needs.
struct PreparedQuery {
  int length_frames = 0;
  double duration_seconds = 0.0;
  sketch::Sketch sketch;  // NOLINT(vcd-pooled-hotpath): per-query, cold
};

/// Fingerprints and sketches \p key_frames under \p config, inferring
/// \p duration_seconds from the timestamps when it is ≤ 0. Lets a
/// multi-stream engine sketch a query once and subscribe the identical
/// sketch on every stream.
Result<PreparedQuery> PrepareQuery(const DetectorConfig& config,
                                   const std::vector<vcd::video::DcFrame>& key_frames,
                                   double duration_seconds);

/// \brief Detects copies of subscribed query videos on a key-frame stream.
///
/// Typical use:
/// ```
/// auto det = CopyDetector::Create(config);
/// det->AddQuery(1, query_key_frames);
/// for (DcFrame f : stream) det->ProcessKeyFrame(f);
/// det->Finish();
/// for (const Match& m : det->matches()) ...
/// ```
///
/// The query table lives in a core::Portfolio. A detector made by
/// Create(config) owns its own; one made by Create(config, portfolio)
/// shares one with every other detector on it, as an executor shard's
/// streams do. Either way the detector keeps only per-stream state:
/// candidates, their pools, scratch, the span bound and the per-query
/// report cooldowns, sized from the portfolio at every basic window.
class CopyDetector {
 public:
  /// Creates a detector that owns its portfolio; fails on invalid config.
  static Result<std::unique_ptr<CopyDetector>> Create(const DetectorConfig& config);

  /// Creates a detector on \p portfolio, which must outlive it and must
  /// Serve() \p config. Every detector on one portfolio runs on one thread,
  /// and a subscription change on it reaches all of them at their next frame.
  static Result<std::unique_ptr<CopyDetector>> Create(const DetectorConfig& config,
                                                      Portfolio* portfolio);

  /// Subscribes a query from its key-frame DC maps, on this detector's
  /// portfolio (shared: on every detector sharing it). \p duration_seconds is
  /// the query's playback length L (used for the λL expiry bound and report
  /// cooldown); if ≤ 0 it is inferred from the key-frame timestamps.
  Status AddQuery(int id, const std::vector<vcd::video::DcFrame>& key_frames,
                  double duration_seconds = -1.0);

  /// Subscribes a query directly from cell ids (for tests and tools).
  Status AddQueryCells(int id, std::vector<features::CellId> ids,
                       double duration_seconds);

  /// Subscribes a query from a pre-computed sketch (e.g. one loaded from a
  /// persisted QueryDb). The sketch must come from the same hash family
  /// (equal K; the caller vouches for the seed).
  Status AddQuerySketch(int id, sketch::Sketch sk, int length_frames,
                        double duration_seconds);

  /// Exports the active queries as (id, length_frames, duration, sketch)
  /// tuples — the payload of a persistable QueryDb (see core/query_store.h;
  /// pair it with config().K and config().hash_seed).
  std::vector<std::tuple<int, int, double, sketch::Sketch>> ExportQueries() const;

  /// Unsubscribes a query and frees its sketch. Candidates keep
  /// already-built state for it but stop matching it; its ordinal stays
  /// reserved.
  Status RemoveQuery(int id);

  /// Feeds one key frame of the monitored stream. A frame flagged
  /// `degraded` (or one whose timestamp runs backwards — clock skew)
  /// contributes no fingerprint: it advances the basic-window clock and
  /// marks the affected window degraded, so that window's sketch
  /// combination is skipped while candidate/arena state stays consistent.
  Status ProcessKeyFrame(const vcd::video::DcFrame& frame);

  /// Feeds one already-fingerprinted key frame (for pre-fingerprinted
  /// streams and tests). \p frame_index is the position among all stream
  /// frames, \p timestamp in seconds.
  Status ProcessFingerprint(int64_t frame_index, double timestamp,
                            features::CellId id);

  /// Feeds one degraded key frame: no fingerprint, the frame only advances
  /// the window clock and taints its basic window (see ProcessKeyFrame).
  Status ProcessDegraded(int64_t frame_index, double timestamp);

  /// Flushes the trailing partial basic window.
  Status Finish();

  /// Clears stream state and matches but keeps the subscribed queries.
  void ResetStream();

  /// The matches reported since creation, restore, ResetStream or the last
  /// TakeMatches.
  const std::vector<Match>& matches() const { return matches_; }

  /// Moves the reported matches out: matches() is empty afterwards, and
  /// `vcd_detector_matches_total` keeps counting every match reported.
  std::vector<Match> TakeMatches();

  /// Runtime counters.
  const DetectorStats& stats() const { return stats_; }

  /// Applies (or withdraws, with a default-constructed knob set) the QoS
  /// degraded-mode quality/throughput trade. Deterministic: the knobs take
  /// effect at the next basic-window boundary, and identical knob/frame
  /// sequences produce identical output. Identity knobs (the default) leave
  /// the detector byte-identical to one that never saw this call.
  void SetDegrade(const qos::DegradeKnobs& knobs) { degrade_ = knobs; }

  /// The QoS degrade knobs currently in effect.
  const qos::DegradeKnobs& degrade() const { return degrade_; }

  /// The configuration in effect.
  const DetectorConfig& config() const { return config_; }

  /// \brief Debug validator over all live candidate state.
  ///
  /// Checks, for every live candidate: `1 ≤ num_windows ≤ ⌈λ·L_max/w⌉`,
  /// the expiry bound the live candidates were built under (expired
  /// candidates must not survive a Step; see span_bound_ for candidates
  /// that outlive a RemoveQuery which lowered the bound), lengths strictly
  /// decreasing from the oldest candidate to the newest, in Geometric order
  /// every length a block boundary of the counter over the combined windows
  /// (stream::IsCounterBoundary), a sketch slot on a Bit candidate exactly
  /// when the order is Geometric, signature lists strictly
  /// sorted by query ordinal with in-range ordinals, related-query lists
  /// strictly sorted, and every bit signature well-formed with K matching
  /// the config (BitSignature::Validate) and within Lemma 2's bound (with
  /// pruning on, at most ⌊K(1−δ)⌋ "<" positions; RestoreCkptState refuses a
  /// snapshot signature over it). It also checks the query table
  /// and its index (Portfolio::ValidateState). Returns the first violation.
  /// Called from tests and, when config().validate_state is set, after
  /// every processed window.
  Status ValidateState() const;

  /// \brief Materializes the full mid-stream state for a checkpoint.
  ///
  /// Candidates are exported by live-slot walk (handles resolved to raw
  /// words/mins), so the snapshot is independent of arena layout and
  /// kernel ISA. Safe to call between any two ProcessKeyFrame calls.
  DetectorCkptState ExportCkptState() const;

  /// \brief Restores state captured by ExportCkptState.
  ///
  /// Preconditions: this detector is freshly created with the same
  /// parameters, its portfolio holds the snapshot's queries in export order
  /// (a sharing portfolio may hold them for other streams already), and no
  /// stream frame has been processed. The portfolio is only read. Candidate
  /// arenas and free-lists are rebuilt by re-allocating each restored
  /// signature/sketch. The snapshot carries no matches, so matches() then
  /// holds only those reported after the cut. Ends with a full
  /// ValidateState() sweep; rejects unknown query ids and malformed
  /// payloads with a typed Status.
  Status RestoreCkptState(const DetectorCkptState& state);

  /// The fingerprinter (shared with dataset tooling so queries and stream
  /// use identical features).
  const features::FrameFingerprinter& fingerprinter() const { return *fingerprinter_; }

 private:
  /// One (query ordinal, SignaturePool slot) pair of a Bit candidate.
  struct SigRef {
    int q = 0;
    sketch::SignaturePool::Handle sig = sketch::SignaturePool::kInvalidHandle;
  };

  /// Bit-representation candidate: all signature bits live in sig_pool_;
  /// the candidate holds only slot handles. In Geometric order it also
  /// holds its span's sketch, from which it adopts a query a later window
  /// relates to (MergeBit).
  struct BitCand {
    int num_windows = 0;
    int64_t start_frame = 0, end_frame = 0;
    double start_time = 0.0, end_time = 0.0;
    std::vector<SigRef> sigs;  ///< sorted by q
    /// sketch_pool_ slot; kInvalidHandle in Sequential order.
    sketch::SketchPool::Handle sketch = sketch::SketchPool::kInvalidHandle;
  };

  /// Sketch-representation candidate: the min-hash array lives in
  /// sketch_pool_.
  struct SketchCand {
    int num_windows = 0;
    int64_t start_frame = 0, end_frame = 0;
    double start_time = 0.0, end_time = 0.0;
    sketch::SketchPool::Handle sketch = sketch::SketchPool::kInvalidHandle;
    std::vector<int> related;  ///< query ordinals, sorted (empty when !use_index)
  };

  /// Reusable per-window working set. Every vector keeps its capacity
  /// across windows, so steady-state ProcessWindow performs zero heap
  /// allocations.
  struct WindowScratch {
    stream::BasicWindow window;        ///< assembler swap buffer
    // NOLINT(vcd-pooled-hotpath): single reused buffer, not per-candidate
    sketch::Sketch window_sketch;      ///< FromSequenceInto target
    std::vector<uint64_t> related_seen;  ///< index probe dedup bitmap
    std::vector<int> related;            ///< index probe output: R_L ordinals
    std::vector<SigRef> merge_sigs;    ///< MergeBit output list
    /// Per query ordinal, the current window's completion signature (built
    /// on demand by WindowSignature) or kInvalidHandle.
    /// Every entry is kInvalidHandle between windows.
    std::vector<sketch::SignaturePool::Handle> window_sig;
    std::vector<int> window_sig_set;  ///< ordinals whose window_sig is set
    /// OrAndPrune's OR pairs, queued by the merges in list order.
    std::vector<sketch::SignaturePool::Handle> or_dst, or_src;
    std::vector<int> or_less;  ///< fused OrRange NumLess output
    std::vector<sketch::SignaturePool::Handle> handle_buf;  ///< TestBitCands
    std::vector<int> eq_buf;                 ///< NumEqualBatch output
    std::vector<int> merge_related;          ///< related-set union buffer
  };

  CopyDetector(const DetectorConfig& config, features::FrameFingerprinter fp,
               sketch::MinHashFamily family, Portfolio* portfolio);

  /// Sizes the per-ordinal state (report cooldowns, completion table,
  /// scratch reservations) to the portfolio and raises span_bound_ to its
  /// λL bound. A no-op, allocation-free, while the portfolio is unchanged.
  void SizeFromPortfolio();

  /// Processes one completed basic window: combines it into the candidate
  /// structure and tests the candidates. Allocation-free at steady state.
  void ProcessWindow(const stream::BasicWindow& window);
  /// Body of ProcessWindow for a window that is neither degraded nor
  /// QoS-skipped: sketch, combine, test.
  void CombineAndTest(const stream::BasicWindow& window);

  /// Fills recycled shell \p c with the fresh single-window Bit candidate
  /// (signatures allocated from sig_pool_; in Geometric order also the
  /// window sketch, in a sketch_pool_ slot).
  void InitBitCand(BitCand* c, const stream::BasicWindow& window,
                   const sketch::Sketch& wsk);
  /// Fills recycled shell \p c with the fresh single-window Sketch
  /// candidate (min-hash array allocated from sketch_pool_).
  void InitSketchCand(SketchCand* c, const stream::BasicWindow& window,
                      const sketch::Sketch& wsk);
  /// ORs scratch_.or_src[t] into scratch_.or_dst[t] — the handles of the
  /// entries of \p sigs that absorb a window, queued in list order — and
  /// drops each of those entries whose fused "<" count now exceeds
  /// max_less_. The one place a live signature's bits change after its
  /// build, so the one place Lemma 2 is checked after it.
  void OrAndPrune(std::vector<SigRef>* sigs);
  /// The Bit merge of both orders (DESIGN.md §6): merges the \p fresh
  /// one-window candidate (window sketch \p wsk) into \p older. Each entry
  /// of \p older is OR'd with this window's signature for its query —
  /// \p fresh's, or a completion built by WindowSignature — so it stays the
  /// exact OR over every absorbed window. Entries past their query's λL cap
  /// (removed queries included) are dropped; OrAndPrune runs over the rest.
  /// A query only \p fresh holds is adopted only by a candidate with a
  /// sketch (Geometric order), with a signature built from that sketch once
  /// the window is combined into it, and kept if it satisfies Lemma 2; in
  /// Sequential order \p fresh keeps it, as the suffix that starts at this
  /// window.
  void MergeBit(BitCand& older, const BitCand& fresh, const sketch::Sketch& wsk);
  /// The current window's signature for query ordinal \p q when the fresh
  /// candidate holds none (the index left \p q out of R_L, or Lemma 2
  /// pruned it at the probe): a completion built from \p wsk and the query
  /// sketch once per window and shared by every older candidate.
  sketch::SignaturePool::Handle WindowSignature(int q, const sketch::Sketch& wsk);
  /// Frees the window's completion signatures and clears window_sig.
  void ReleaseWindowSignatures();
  /// Merges \p newer into \p older (Sketch representation) with the
  /// strided CombineMin kernel.
  void MergeSketch(SketchCand& older, const SketchCand& newer);
  /// Calls \p fn on every live candidate of \p cands in test order: oldest
  /// first in Sequential order, newest (shortest) first in Geometric order,
  /// as Fig. 2's suffix sweep visits them. The order decides which of two
  /// suffixes that match in one window the report cooldown lets through.
  template <typename C, typename Fn>
  void ForEachInTestOrder(stream::SequentialCandidates<C>& cands, Fn&& fn);
  /// Tests every Bit candidate with one NumEqualBatch over all their
  /// signatures: drops entries past their query's λL cap (removed queries
  /// included) and emits a match for every other entry at similarity ≥ δ.
  /// Lemma 2 needs no recheck here: no live signature breaks it
  /// (ValidateState).
  void TestBitCands();
  /// Tests a Sketch candidate (a sketch_pool_ slot) against its related
  /// queries and emits matches.
  void TestSketchCand(SketchCand& c);
  /// Releases a candidate's arena slots back to the pools and clears
  /// its lists (the container parks the shell for reuse afterwards).
  void RetireBit(BitCand* c);
  void RetireSketch(SketchCand* c);

  /// Emits a match for query ordinal \p q unless muted.
  void EmitMatch(int q, int64_t start_frame, int64_t end_frame, double start_time,
                 double end_time, double sim);

  /// Records the per-window memory/candidate statistics.
  void RecordWindowStats();

  /// Mirrors this window's stats_ deltas into the metrics registry (the
  /// `vcd_detector_*` counter family). One batch of relaxed counter adds
  /// per window — never per merge — to stay inside the hot-path overhead
  /// budget; allocation-free, preserving the window step's zero-alloc
  /// steady-state contract. No-op when config().metrics is null or the
  /// tree is built with VCD_OBS=OFF.
  void PublishWindowMetrics();

  /// stats_ fields already published by PublishWindowMetrics; next call
  /// publishes only the delta.
  struct PublishedStats {
    int64_t windows = 0;
    int64_t degraded_windows = 0;
    int64_t qos_skipped_windows = 0;
    int64_t bitsig_builds = 0;
    int64_t bitsig_ors = 0;
    int64_t sketch_combines = 0;
    int64_t sketch_compares = 0;
    int64_t candidates_pruned = 0;
    int64_t matches = 0;
    int64_t cand_count = 0;  ///< live candidates after the previous window
  };

  DetectorConfig config_;
  std::unique_ptr<features::FrameFingerprinter> fingerprinter_;
  sketch::MinHashFamily family_;
  sketch::Sketcher sketcher_;
  std::optional<stream::BasicWindowAssembler> assembler_;

  /// Lemma 2's bound, BitSignature::Lemma2MaxLess(K, δ), or INT_MAX with
  /// pruning off: no live Bit signature holds more "<" positions. Checked
  /// where bits change — after a build and after each OR — and by
  /// ValidateState.
  int max_less_ = 0;
  /// Set by Create(config) only; portfolio_ points at it then.
  std::unique_ptr<Portfolio> owned_portfolio_;
  Portfolio* portfolio_ = nullptr;
  /// Per query ordinal: stream time before which reports are muted.
  std::vector<double> suppress_until_;
  /// The λL bound ValidateState checks candidate spans against: the largest
  /// portfolio bound (Portfolio::global_max_windows) any live candidate was
  /// built under. It exceeds that bound only after a RemoveQuery lowered it.
  /// Then either order holds longer candidates until its next Step expires
  /// them. Once no live candidate is longer than the bound, it drops back.
  int span_bound_ = 1;
  /// Clock-skew guard: the highest timestamp seen on the stream. Frames
  /// arriving behind it are demoted to degraded (their fingerprint would
  /// land in the wrong basic window).
  double max_timestamp_ = 0.0;
  bool saw_frame_ = false;

  // The candidate list of the configured representation, in either order,
  // and the arenas.
  stream::SequentialCandidates<BitCand> bit_cands_;
  stream::SequentialCandidates<SketchCand> sketch_cands_;
  std::optional<sketch::SignaturePool> sig_pool_;
  std::optional<sketch::SketchPool> sketch_pool_;
  WindowScratch scratch_;

  std::vector<Match> matches_;
  DetectorStats stats_;
  /// QoS degraded-mode knobs in effect (identity unless the overload
  /// governor pushed a degrade via SetDegrade).
  qos::DegradeKnobs degrade_;

  // Observability (see DESIGN.md §13). All-null when config_.metrics is
  // null; instrument pointers are cached here once at Create.
  obs::DetectorMetrics metrics_;
  PublishedStats published_;
  /// Live candidate count of the last RecordWindowStats sweep (reused by
  /// PublishWindowMetrics to derive admitted/expired deltas).
  int64_t last_cand_count_ = 0;
};

}  // namespace vcd::core
