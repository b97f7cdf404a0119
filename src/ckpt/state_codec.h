#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "core/config.h"
#include "core/detector.h"
#include "qos/qos.h"
#include "util/status.h"

/// \file state_codec.h
/// Encoding between the in-memory checkpoint state (core::StreamCkpt et al.)
/// and the snapshot container's section payloads (docs/FORMATS.md).
///
/// SnapshotState is the executor's one checkpoint type:
/// parallel::StreamExecutor::Checkpoint() returns it with META stamped, at
/// any thread count, and RestoreCkpt() takes it at any other, provided the
/// detector parameters match (CheckMeta rejects everything else with a
/// typed error).

namespace vcd::ckpt {

/// A stream match tagged with the global submission sequence number of the
/// frame (or close command) that produced it — the merge key that restores
/// arrival order across shards (parallel::SeqMatch names this type).
struct SnapshotMatch {
  uint64_t seq = 0;
  core::StreamMatch match;
};

/// One input file's ingest position in the vcdctl driver loop — what lets a
/// restored `vcdctl monitor` resume feeding each file at the exact key
/// frame the checkpoint cut at.
struct DriverFileState {
  std::string path;
  int64_t frames_fed = 0;  ///< key frames already consumed by the detector
  bool done = false;       ///< the file was fully fed before the checkpoint
  int stream_id = 0;       ///< executor stream carrying this file
};

/// \brief Everything one snapshot carries, decoded.
struct SnapshotState {
  uint64_t epoch = 0;  ///< stamped by the Checkpointer on save

  // META — the detector parameters the snapshot was taken under. Restore
  // refuses to proceed when these disagree with the running config: resumed
  // state under a different K or hash family would be silently wrong.
  int k = 0;
  uint64_t hash_seed = 0;
  double delta = 0.0;
  double window_seconds = 0.0;
  double lambda = 0.0;
  int representation = 0;  ///< core::Representation as int
  int order = 0;           ///< core::CombinationOrder as int
  bool use_index = false;
  bool enable_pruning = false;

  /// QUERYDB — the serialized VCDQ image of the subscribed portfolio, kept
  /// verbatim so restore re-imports byte-identical query sketches.
  std::vector<uint8_t> query_db;

  // EXEC — id/sequence counters.
  int next_stream_id = 1;
  uint64_t next_seq = 1;

  /// STREAMS — every open stream: health machine, priority and detector
  /// state, ascending stream_id.
  std::vector<core::StreamCkpt> streams;

  /// MATCHES — every match reported before the barrier, merged and pending,
  /// stable-sorted by seq: what matches() would return after a Drain() at
  /// the barrier. The only place a snapshot records a match.
  std::vector<SnapshotMatch> matches;

  /// DRIVER — vcdctl ingest positions (absent for library users).
  std::vector<DriverFileState> driver;

  /// QOS — the overload governor's per-shard hysteresis machines (absent
  /// when the governor is disabled), so a restore mid-Degraded resumes
  /// degraded instead of forgetting the overload and thrashing back into it.
  std::vector<qos::GovernorShardCkpt> qos;
};

/// Encodes \p state into the container sections (everything except epoch,
/// which EncodeSnapshot stamps into the header).
std::vector<Section> EncodeState(const SnapshotState& state);

/// Decodes a verified snapshot container. Typed Corruption on any
/// structural violation (truncated payloads, trailing bytes, out-of-range
/// counts); missing optional sections (DRIVER) decode to empty.
Result<SnapshotState> DecodeState(const Snapshot& snap);

/// Fills SnapshotState's META fields from \p config.
void StampMeta(const core::DetectorConfig& config, SnapshotState* state);

/// Rejects a snapshot whose detector parameters disagree with \p config —
/// FailedPrecondition naming the first mismatched field.
Status CheckMeta(const SnapshotState& state, const core::DetectorConfig& config);

}  // namespace vcd::ckpt
