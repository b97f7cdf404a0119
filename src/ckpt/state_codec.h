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
/// The codec knows no engine: parallel::StreamExecutor checkpoints through
/// SnapshotState at any thread count, and a snapshot restores at any other,
/// provided the detector parameters match (CheckMeta rejects everything
/// else with a typed error). Snapshots written by the serial engine of
/// earlier versions carry seq = 0 on every match and next_seq = 1; they
/// restore onto the executor unchanged.

namespace vcd::ckpt {

/// A stream match tagged with its global submission sequence number
/// (parallel::SeqMatch's shape, mirrored here so vcd_ckpt does not depend
/// on vcd_parallel).
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

  /// QUERYDB — the serialized VCDQ image of the subscribed portfolio, kept
  /// verbatim so restore re-imports byte-identical query sketches.
  std::vector<uint8_t> query_db;

  // EXEC — id/sequence counters.
  int next_stream_id = 1;
  uint64_t next_seq = 1;

  /// STREAMS — every open stream: health machine + full detector state.
  std::vector<core::StreamCkpt> streams;

  /// MATCHES — the merged match log at the barrier, ascending seq.
  std::vector<SnapshotMatch> matches;

  /// DRIVER — vcdctl ingest positions (absent for library users).
  std::vector<DriverFileState> driver;

  /// QOS — the overload governor's per-shard hysteresis machines (absent
  /// when the governor is disabled or the snapshot predates the section),
  /// so a restore mid-Degraded resumes degraded instead of forgetting the
  /// overload and thrashing back into it.
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
