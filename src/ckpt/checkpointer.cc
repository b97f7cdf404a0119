#include "ckpt/checkpointer.h"

#include <errno.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "ckpt/snapshot.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace vcd::ckpt {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "VCDMANIFEST 1";
/// Complete snapshots the manifest retains: the newest plus one fallback.
constexpr size_t kManifestKeep = 2;

std::string SnapshotFilename(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%016" PRIu64 ".vck", epoch);
  return buf;
}

}  // namespace

Result<Checkpointer> Checkpointer::Open(const std::string& dir,
                                        obs::MetricsRegistry* registry) {
  if (dir.empty()) return Status::InvalidArgument("checkpoint dir is empty");
  if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir " + dir + ": " + std::strerror(errno));
  }
  Checkpointer ckpt(dir, obs::CkptMetrics::Create(registry));

  std::string manifest;
  Status read = util::ReadFileToString(dir + "/" + kManifestName, &manifest);
  if (read.code() == StatusCode::kNotFound) return ckpt;  // fresh directory
  VCD_RETURN_IF_ERROR(read);

  std::istringstream in(manifest);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::Corruption(dir + "/MANIFEST: bad header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    ManifestEntry entry;
    if (!(fields >> entry.epoch >> entry.filename)) {
      // One malformed line must not make every snapshot unreachable; skip
      // it loudly and keep whatever parses.
      VCD_WARN("MANIFEST: skipping malformed line: " << line);
      continue;
    }
    ckpt.entries_.push_back(std::move(entry));
  }
  if (!ckpt.entries_.empty()) {
    ckpt.next_epoch_ = ckpt.entries_.back().epoch + 1;
    if (ckpt.metrics_.checkpoint_epoch != nullptr) {
      ckpt.metrics_.checkpoint_epoch->Set(
          static_cast<double>(ckpt.entries_.back().epoch));
    }
  }
  return ckpt;
}

Status Checkpointer::WriteManifest(const std::vector<ManifestEntry>& entries) {
  std::ostringstream out;
  out << kManifestHeader << "\n";
  for (const ManifestEntry& e : entries) {
    out << e.epoch << " " << e.filename << "\n";
  }
  auto writer = util::AtomicFileWriter::Open(dir_ + "/" + kManifestName);
  if (!writer.ok()) return writer.status();
  VCD_RETURN_IF_ERROR(writer->Append(out.str()));
  return writer->Commit();
}

Status Checkpointer::Save(const SnapshotState& state) {
  const auto t0 = std::chrono::steady_clock::now();
  auto fail = [this](Status st) {
    if (metrics_.checkpoint_failures_total != nullptr) {
      metrics_.checkpoint_failures_total->Inc();
    }
    return st;
  };

  const uint64_t epoch = next_epoch_;
  const std::vector<uint8_t> image =
      EncodeSnapshot(epoch, EncodeState(state));
  const std::string filename = SnapshotFilename(epoch);

  auto writer = util::AtomicFileWriter::Open(dir_ + "/" + filename, epoch);
  if (!writer.ok()) return fail(writer.status());
  Status st = writer->Append(image.data(), image.size());
  if (st.ok()) st = writer->Commit();
  if (!st.ok()) return fail(st);

  // The snapshot file is durable; now commit it to the manifest. Until this
  // rename lands, a restore still loads the previous snapshot — the new
  // file is invisible, which is exactly the crash-consistency contract.
  std::vector<ManifestEntry> entries = entries_;
  entries.push_back(ManifestEntry{epoch, filename});
  std::vector<ManifestEntry> dropped;
  while (entries.size() > kManifestKeep) {
    dropped.push_back(entries.front());
    entries.erase(entries.begin());
  }
  st = WriteManifest(entries);
  if (!st.ok()) return fail(st);
  entries_ = std::move(entries);
  next_epoch_ = epoch + 1;

  // Best-effort cleanup of snapshots the manifest no longer names; a
  // leftover file is garbage, not a correctness problem.
  for (const ManifestEntry& e : dropped) {
    ::unlink((dir_ + "/" + e.filename).c_str());
  }

  const auto elapsed = std::chrono::steady_clock::now() - t0;
  if (metrics_.checkpoints_total != nullptr) {
    metrics_.checkpoints_total->Inc();
    metrics_.checkpoint_bytes->Set(static_cast<double>(image.size()));
    metrics_.checkpoint_epoch->Set(static_cast<double>(epoch));
    metrics_.checkpoint_duration_ns->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  return Status::OK();
}

Result<SnapshotState> Checkpointer::LoadLatest() {
  if (entries_.empty()) {
    return Status::NotFound("no snapshot committed in " + dir_);
  }
  // Newest first; fall back on any unreadable entry.
  const auto try_load = [](const std::string& path) -> Result<SnapshotState> {
    std::string image;
    VCD_RETURN_IF_ERROR(util::ReadFileToString(path, &image));
    auto snap = DecodeSnapshot(reinterpret_cast<const uint8_t*>(image.data()),
                               image.size());
    if (!snap.ok()) return snap.status();
    return DecodeState(*snap);
  };
  // A format-version refusal is no corruption: such an entry is skipped
  // all the same, but uncounted, and it is what the caller hears when no
  // entry loads.
  Status refused;
  for (size_t i = entries_.size(); i-- > 0;) {
    const ManifestEntry& entry = entries_[i];
    const std::string path = dir_ + "/" + entry.filename;
    Result<SnapshotState> state = try_load(path);
    if (state.ok() && state->epoch != entry.epoch) {
      state = Status::Corruption("snapshot epoch " +
                                 std::to_string(state->epoch) +
                                 " disagrees with manifest entry " +
                                 std::to_string(entry.epoch));
    }
    if (state.ok()) {
      if (metrics_.restores_total != nullptr) metrics_.restores_total->Inc();
      return state;
    }
    VCD_WARN(path << ": unreadable snapshot (" << state.status().ToString()
                  << "); falling back to previous manifest entry");
    if (state.status().code() == StatusCode::kFailedPrecondition) {
      if (refused.ok()) refused = state.status();
    } else if (metrics_.restore_corruption_total != nullptr) {
      metrics_.restore_corruption_total->Inc();
    }
  }
  if (!refused.ok()) return refused;
  return Status::Corruption("every snapshot named by " + dir_ +
                            "/MANIFEST is unreadable");
}

}  // namespace vcd::ckpt
