#include "ckpt/state_codec.h"

#include <string>
#include <utility>

#include "ckpt/byte_io.h"

namespace vcd::ckpt {

namespace {

// ---------------------------------------------------------------------------
// Shared sub-codecs. Every Decode* helper returns false on a structural
// violation (an overrun is latched by the reader and surfaced by Finish);
// element counts are validated against the remaining span before any
// allocation so a corrupt count field cannot trigger a huge reserve.

bool CountFits(const ByteReader& r, uint32_t count, size_t min_elem_size) {
  return static_cast<uint64_t>(count) * min_elem_size <= r.remaining();
}

void EncodeMatch(const core::Match& m, ByteWriter* w) {
  w->I32(m.query_id);
  w->I64(m.start_frame);
  w->I64(m.end_frame);
  w->F64(m.start_time);
  w->F64(m.end_time);
  w->F64(m.similarity);
}

void DecodeMatch(ByteReader* r, core::Match* m) {
  m->query_id = r->I32();
  m->start_frame = r->I64();
  m->end_frame = r->I64();
  m->start_time = r->F64();
  m->end_time = r->F64();
  m->similarity = r->F64();
}

void EncodeRaw(const RunningStats& s, ByteWriter* w) {
  const RunningStats::Raw raw = s.ToRaw();
  w->I64(raw.n);
  w->F64(raw.mean);
  w->F64(raw.m2);
  w->F64(raw.sum);
  w->F64(raw.min);
  w->F64(raw.max);
}

RunningStats DecodeRaw(ByteReader* r) {
  RunningStats::Raw raw;
  raw.n = r->I64();
  raw.mean = r->F64();
  raw.m2 = r->F64();
  raw.sum = r->F64();
  raw.min = r->F64();
  raw.max = r->F64();
  return RunningStats::FromRaw(raw);
}

void EncodeDetector(const core::DetectorCkptState& d, ByteWriter* w) {
  w->U8(d.saw_frame ? 1 : 0);
  w->F64(d.max_timestamp);

  const auto& a = d.assembler;
  w->U8(a.open ? 1 : 0);
  w->F64(a.window_start_time);
  w->I64(a.next_index);
  w->I64(a.acc.index);
  w->I64(a.acc.start_frame);
  w->I64(a.acc.end_frame);
  w->F64(a.acc.start_time);
  w->F64(a.acc.end_time);
  w->U8(a.acc.degraded ? 1 : 0);
  w->U32(static_cast<uint32_t>(a.acc.ids.size()));
  for (features::CellId id : a.acc.ids) w->U32(id);

  w->U32(static_cast<uint32_t>(d.queries.size()));
  for (const auto& q : d.queries) {
    w->I32(q.id);
    w->F64(q.suppress_until);
  }

  const core::DetectorStats& s = d.stats;
  w->I64(s.key_frames);
  w->I64(s.windows);
  w->I64(s.sketch_combines);
  w->I64(s.sketch_compares);
  w->I64(s.bitsig_ors);
  w->I64(s.bitsig_builds);
  w->I64(s.candidates_pruned);
  w->I64(s.degraded_frames);
  w->I64(s.degraded_windows);
  w->I64(s.out_of_order_frames);
  w->I64(s.qos_skipped_windows);
  EncodeRaw(s.signatures_per_window, w);
  EncodeRaw(s.candidates_per_window, w);
  EncodeRaw(s.pool_slots_per_window, w);

  w->U32(static_cast<uint32_t>(d.candidates.size()));
  for (const core::CkptCandidate& c : d.candidates) {
    w->I32(c.num_windows);
    w->I64(c.start_frame);
    w->I64(c.end_frame);
    w->F64(c.start_time);
    w->F64(c.end_time);
    w->U32(static_cast<uint32_t>(c.sigs.size()));
    for (const auto& sig : c.sigs) {
      w->I32(sig.query_id);
      w->U32(static_cast<uint32_t>(sig.words.size()));
      for (uint64_t word : sig.words) w->U64(word);
    }
    w->U32(static_cast<uint32_t>(c.mins.size()));
    for (uint64_t v : c.mins) w->U64(v);
    w->U32(static_cast<uint32_t>(c.related_ids.size()));
    for (int id : c.related_ids) w->I32(id);
  }
}

bool DecodeDetector(ByteReader* r, core::DetectorCkptState* d) {
  d->saw_frame = r->U8() != 0;
  d->max_timestamp = r->F64();

  auto& a = d->assembler;
  a.open = r->U8() != 0;
  a.window_start_time = r->F64();
  a.next_index = r->I64();
  a.acc.index = r->I64();
  a.acc.start_frame = r->I64();
  a.acc.end_frame = r->I64();
  a.acc.start_time = r->F64();
  a.acc.end_time = r->F64();
  a.acc.degraded = r->U8() != 0;
  const uint32_t num_ids = r->U32();
  if (!CountFits(*r, num_ids, 4)) return false;
  a.acc.ids.resize(num_ids);
  for (uint32_t i = 0; i < num_ids; ++i) a.acc.ids[i] = r->U32();

  const uint32_t num_queries = r->U32();
  if (!CountFits(*r, num_queries, 12)) return false;
  d->queries.resize(num_queries);
  for (auto& q : d->queries) {
    q.id = r->I32();
    q.suppress_until = r->F64();
  }

  core::DetectorStats& s = d->stats;
  s.key_frames = r->I64();
  s.windows = r->I64();
  s.sketch_combines = r->I64();
  s.sketch_compares = r->I64();
  s.bitsig_ors = r->I64();
  s.bitsig_builds = r->I64();
  s.candidates_pruned = r->I64();
  s.degraded_frames = r->I64();
  s.degraded_windows = r->I64();
  s.out_of_order_frames = r->I64();
  s.qos_skipped_windows = r->I64();
  s.signatures_per_window = DecodeRaw(r);
  s.candidates_per_window = DecodeRaw(r);
  s.pool_slots_per_window = DecodeRaw(r);

  const uint32_t num_cands = r->U32();
  if (!CountFits(*r, num_cands, 48)) return false;
  d->candidates.resize(num_cands);
  for (auto& c : d->candidates) {
    c.num_windows = r->I32();
    c.start_frame = r->I64();
    c.end_frame = r->I64();
    c.start_time = r->F64();
    c.end_time = r->F64();
    const uint32_t num_sigs = r->U32();
    if (!CountFits(*r, num_sigs, 8)) return false;
    c.sigs.resize(num_sigs);
    for (auto& sig : c.sigs) {
      sig.query_id = r->I32();
      const uint32_t num_words = r->U32();
      if (!CountFits(*r, num_words, 8)) return false;
      sig.words.resize(num_words);
      for (auto& word : sig.words) word = r->U64();
    }
    const uint32_t num_mins = r->U32();
    if (!CountFits(*r, num_mins, 8)) return false;
    c.mins.resize(num_mins);
    for (auto& v : c.mins) v = r->U64();
    const uint32_t num_related = r->U32();
    if (!CountFits(*r, num_related, 4)) return false;
    c.related_ids.resize(num_related);
    for (auto& id : c.related_ids) id = r->I32();
  }
  return r->ok();
}

void EncodeStream(const core::StreamCkpt& s, ByteWriter* w) {
  w->I32(s.stream_id);
  w->Str(s.name);
  w->I32(s.health);
  w->I32(s.consecutive_faults);
  w->I32(s.consecutive_clean);
  w->I64(s.quarantine_remaining);
  w->I64(s.backoff_frames);
  w->I32(s.priority);
  EncodeDetector(s.detector, w);
}

bool DecodeStream(ByteReader* r, core::StreamCkpt* s) {
  s->stream_id = r->I32();
  if (!r->Str(&s->name)) return false;
  s->health = r->I32();
  s->consecutive_faults = r->I32();
  s->consecutive_clean = r->I32();
  s->quarantine_remaining = r->I64();
  s->backoff_frames = r->I64();
  s->priority = r->I32();
  return DecodeDetector(r, &s->detector);
}

}  // namespace

std::vector<Section> EncodeState(const SnapshotState& state) {
  std::vector<Section> sections;

  {
    ByteWriter w;
    w.I32(state.k);
    w.U64(state.hash_seed);
    w.F64(state.delta);
    w.F64(state.window_seconds);
    w.F64(state.lambda);
    w.I32(state.representation);
    w.I32(state.order);
    w.U8(state.use_index ? 1 : 0);
    w.U8(state.enable_pruning ? 1 : 0);
    sections.push_back(Section{kSectionMeta, w.Take()});
  }

  sections.push_back(Section{kSectionQueryDb, state.query_db});

  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(state.streams.size()));
    for (const core::StreamCkpt& s : state.streams) EncodeStream(s, &w);
    sections.push_back(Section{kSectionStreams, w.Take()});
  }

  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(state.matches.size()));
    for (const SnapshotMatch& m : state.matches) {
      w.U64(m.seq);
      w.I32(m.match.stream_id);
      w.Str(m.match.stream_name);
      EncodeMatch(m.match.match, &w);
    }
    sections.push_back(Section{kSectionMatches, w.Take()});
  }

  {
    ByteWriter w;
    w.I32(state.next_stream_id);
    w.U64(state.next_seq);
    sections.push_back(Section{kSectionExec, w.Take()});
  }

  if (!state.driver.empty()) {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(state.driver.size()));
    for (const DriverFileState& f : state.driver) {
      w.Str(f.path);
      w.I64(f.frames_fed);
      w.U8(f.done ? 1 : 0);
      w.I32(f.stream_id);
    }
    sections.push_back(Section{kSectionDriver, w.Take()});
  }

  if (!state.qos.empty()) {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(state.qos.size()));
    for (const qos::GovernorShardCkpt& m : state.qos) {
      w.I32(m.state);
      w.I64(m.dwell_ticks);
      w.I32(m.escalate_streak);
      w.I32(m.recover_streak);
    }
    sections.push_back(Section{kSectionQos, w.Take()});
  }

  return sections;
}

Result<SnapshotState> DecodeState(const Snapshot& snap) {
  SnapshotState state;
  state.epoch = snap.epoch;

  const Section* meta = snap.Find(kSectionMeta);
  if (meta == nullptr) return Status::Corruption("snapshot: META section missing");
  {
    ByteReader r(meta->payload.data(), meta->payload.size());
    state.k = r.I32();
    state.hash_seed = r.U64();
    state.delta = r.F64();
    state.window_seconds = r.F64();
    state.lambda = r.F64();
    state.representation = r.I32();
    state.order = r.I32();
    state.use_index = r.U8() != 0;
    state.enable_pruning = r.U8() != 0;
    VCD_RETURN_IF_ERROR(r.Finish("META section"));
  }

  const Section* qdb = snap.Find(kSectionQueryDb);
  if (qdb == nullptr) {
    return Status::Corruption("snapshot: QUERYDB section missing");
  }
  state.query_db = qdb->payload;

  const Section* streams = snap.Find(kSectionStreams);
  if (streams == nullptr) {
    return Status::Corruption("snapshot: STREAMS section missing");
  }
  {
    ByteReader r(streams->payload.data(), streams->payload.size());
    const uint32_t count = r.U32();
    if (!CountFits(r, count, 50)) {
      return Status::Corruption("STREAMS section: stream count out of range");
    }
    state.streams.resize(count);
    for (auto& s : state.streams) {
      if (!DecodeStream(&r, &s)) {
        return Status::Corruption("STREAMS section: malformed stream record");
      }
    }
    VCD_RETURN_IF_ERROR(r.Finish("STREAMS section"));
  }

  const Section* matches = snap.Find(kSectionMatches);
  if (matches == nullptr) {
    return Status::Corruption("snapshot: MATCHES section missing");
  }
  {
    ByteReader r(matches->payload.data(), matches->payload.size());
    const uint32_t count = r.U32();
    if (!CountFits(r, count, 60)) {
      return Status::Corruption("MATCHES section: match count out of range");
    }
    state.matches.resize(count);
    for (auto& m : state.matches) {
      m.seq = r.U64();
      m.match.stream_id = r.I32();
      if (!r.Str(&m.match.stream_name)) {
        return Status::Corruption("MATCHES section: malformed match record");
      }
      DecodeMatch(&r, &m.match.match);
    }
    VCD_RETURN_IF_ERROR(r.Finish("MATCHES section"));
  }

  const Section* exec = snap.Find(kSectionExec);
  if (exec == nullptr) return Status::Corruption("snapshot: EXEC section missing");
  {
    ByteReader r(exec->payload.data(), exec->payload.size());
    state.next_stream_id = r.I32();
    state.next_seq = r.U64();
    VCD_RETURN_IF_ERROR(r.Finish("EXEC section"));
  }

  // DRIVER is optional: library embedders checkpoint without it.
  if (const Section* driver = snap.Find(kSectionDriver)) {
    ByteReader r(driver->payload.data(), driver->payload.size());
    const uint32_t count = r.U32();
    if (!CountFits(r, count, 17)) {
      return Status::Corruption("DRIVER section: file count out of range");
    }
    state.driver.resize(count);
    for (auto& f : state.driver) {
      if (!r.Str(&f.path)) {
        return Status::Corruption("DRIVER section: malformed file record");
      }
      f.frames_fed = r.I64();
      f.done = r.U8() != 0;
      f.stream_id = r.I32();
    }
    VCD_RETURN_IF_ERROR(r.Finish("DRIVER section"));
  }

  // QOS is optional: absent when the governor is disabled.
  if (const Section* qos_sec = snap.Find(kSectionQos)) {
    ByteReader r(qos_sec->payload.data(), qos_sec->payload.size());
    const uint32_t count = r.U32();
    if (!CountFits(r, count, 20)) {
      return Status::Corruption("QOS section: shard count out of range");
    }
    state.qos.resize(count);
    for (auto& m : state.qos) {
      m.state = r.I32();
      m.dwell_ticks = r.I64();
      m.escalate_streak = r.I32();
      m.recover_streak = r.I32();
    }
    VCD_RETURN_IF_ERROR(r.Finish("QOS section"));
  }

  return state;
}

void StampMeta(const core::DetectorConfig& config, SnapshotState* state) {
  state->k = config.K;
  state->hash_seed = config.hash_seed;
  state->delta = config.delta;
  state->window_seconds = config.window_seconds;
  state->lambda = config.lambda;
  state->representation = static_cast<int>(config.representation);
  state->order = static_cast<int>(config.order);
  state->use_index = config.use_index;
  state->enable_pruning = config.enable_pruning;
}

Status CheckMeta(const SnapshotState& state, const core::DetectorConfig& config) {
  if (state.k != config.K) {
    return Status::FailedPrecondition(
        "snapshot K=" + std::to_string(state.k) +
        " does not match config K=" + std::to_string(config.K));
  }
  if (state.hash_seed != config.hash_seed) {
    return Status::FailedPrecondition(
        "snapshot hash seed does not match config hash seed");
  }
  if (state.delta != config.delta) {
    return Status::FailedPrecondition("snapshot delta does not match config");
  }
  if (state.window_seconds != config.window_seconds) {
    return Status::FailedPrecondition(
        "snapshot window length does not match config");
  }
  if (state.lambda != config.lambda) {
    return Status::FailedPrecondition("snapshot lambda does not match config");
  }
  if (state.representation != static_cast<int>(config.representation)) {
    return Status::FailedPrecondition(
        "snapshot representation does not match config");
  }
  if (state.order != static_cast<int>(config.order)) {
    return Status::FailedPrecondition(
        "snapshot combination order does not match config");
  }
  if (state.use_index != config.use_index) {
    return Status::FailedPrecondition("snapshot index setting does not match config");
  }
  if (state.enable_pruning != config.enable_pruning) {
    return Status::FailedPrecondition("snapshot pruning setting does not match config");
  }
  return Status::OK();
}

}  // namespace vcd::ckpt
