#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/state_codec.h"
#include "obs/pipeline_metrics.h"
#include "util/status.h"

/// \file checkpointer.h
/// Durable snapshot management for one checkpoint directory.
///
/// The directory holds numbered snapshot files (`ckpt-<epoch>.vck`) plus a
/// `MANIFEST` text file naming the complete ones, newest last
/// (docs/FORMATS.md). Both are written through util::AtomicFileWriter, so a
/// crash at any instant leaves either the old state or the new state — never
/// a half-written file that the reader trusts. The manifest keeps the last
/// two snapshots: if the newest turns out torn or CRC-corrupt at restore
/// (e.g. the storage layer lied about durability), LoadLatest falls back to
/// the previous entry with a logged warning instead of failing the restart.

namespace vcd::ckpt {

/// \brief Owner of one checkpoint directory: epoch allocation, atomic snapshot
/// writes, manifest-driven restores.
class Checkpointer {
 public:
  /// Opens (and if needed creates) checkpoint directory \p dir, reading the
  /// MANIFEST to learn the last committed epoch. \p registry receives the
  /// `vcd_ckpt_*` metric families; null detaches observability.
  static Result<Checkpointer> Open(const std::string& dir,
                                   obs::MetricsRegistry* registry = nullptr);

  /// The epoch the next Save will stamp (last committed + 1; 1 on a fresh
  /// directory).
  uint64_t next_epoch() const { return next_epoch_; }

  /// Encodes \p state, stamps the next epoch into it, writes the snapshot
  /// atomically and commits it to the MANIFEST (keeping this entry and the
  /// previous one; older snapshot files are deleted best-effort). On any
  /// error the manifest — and therefore what a restore would load — is
  /// unchanged, and the epoch is not consumed.
  Status Save(const SnapshotState& state);

  /// Loads the newest complete snapshot named by the MANIFEST. A torn,
  /// truncated or CRC-corrupt entry is skipped with a VCD_WARN (counted in
  /// `vcd_ckpt_restore_corruption_total`) and the previous entry is tried;
  /// so is one of another format version, uncounted. NotFound when the
  /// manifest names nothing. When no named snapshot loads: the newest
  /// format-version FailedPrecondition if any entry was refused for its
  /// version, else Corruption.
  Result<SnapshotState> LoadLatest();

 private:
  struct ManifestEntry {
    uint64_t epoch = 0;
    std::string filename;
  };

  Checkpointer(std::string dir, obs::CkptMetrics metrics)
      : dir_(std::move(dir)), metrics_(metrics) {}

  /// Atomically rewrites the MANIFEST to name \p entries (oldest first).
  Status WriteManifest(const std::vector<ManifestEntry>& entries);

  std::string dir_;
  obs::CkptMetrics metrics_;
  uint64_t next_epoch_ = 1;
  /// Complete snapshots, oldest first, mirroring the on-disk MANIFEST.
  std::vector<ManifestEntry> entries_;
};

}  // namespace vcd::ckpt
