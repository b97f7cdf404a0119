#include "ckpt/snapshot.h"

#include <cstring>
#include <string>

#include "ckpt/byte_io.h"
#include "util/crc32c.h"
#include "util/faultfx.h"

namespace vcd::ckpt {

std::vector<uint8_t> EncodeSnapshot(uint64_t epoch,
                                    const std::vector<Section>& sections) {
  ByteWriter w;
  w.Bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U32(kSnapshotFormatVersion);
  w.U64(epoch);
  w.U32(static_cast<uint32_t>(sections.size()));
  for (const Section& s : sections) {
    w.U32(s.id);
    w.U64(s.payload.size());
    // The CRC seeds with the LE section id before the payload, so a flipped
    // id bit — which would silently reassign the payload's meaning — fails
    // verification just like a flipped payload bit.
    const uint8_t id_le[4] = {
        static_cast<uint8_t>(s.id), static_cast<uint8_t>(s.id >> 8),
        static_cast<uint8_t>(s.id >> 16), static_cast<uint8_t>(s.id >> 24)};
    uint32_t crc = util::Crc32c(id_le, sizeof(id_le));
    crc = util::Crc32c(crc, s.payload.data(), s.payload.size());
    w.U32(crc);
    w.Bytes(s.payload.data(), s.payload.size());
  }
  std::vector<uint8_t> out = w.Take();
  if (faultfx::ShouldFire(faultfx::Site::kCkptCrcCorrupt, epoch) &&
      !out.empty()) {
    // Flip one bit past the header so the image fails CRC verification but
    // still parses far enough to look like a snapshot — the shape of a real
    // storage-layer corruption.
    out[out.size() / 2] ^= 0x01;
  }
  return out;
}

Result<Snapshot> DecodeSnapshot(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  uint8_t magic[4] = {0, 0, 0, 0};
  if (!r.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    return Status::Corruption("snapshot: bad magic");
  }
  const uint32_t version = r.U32();
  if (!r.ok()) return Status::Corruption("snapshot: truncated header");
  if (version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition("snapshot: format version " +
                                      std::to_string(version) +
                                      " not supported (this build reads " +
                                      std::to_string(kSnapshotFormatVersion) +
                                      " only)");
  }
  Snapshot snap;
  snap.epoch = r.U64();
  const uint32_t count = r.U32();
  if (!r.ok()) return Status::Corruption("snapshot: truncated header");
  snap.sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Section s;
    s.id = r.U32();
    const uint64_t len = r.U64();
    const uint32_t want_crc = r.U32();
    if (!r.ok() || len > r.remaining()) {
      return Status::Corruption("snapshot: section " + std::to_string(i) +
                                " truncated");
    }
    s.payload.resize(static_cast<size_t>(len));
    r.Bytes(s.payload.data(), s.payload.size());
    const uint8_t id_le[4] = {
        static_cast<uint8_t>(s.id), static_cast<uint8_t>(s.id >> 8),
        static_cast<uint8_t>(s.id >> 16), static_cast<uint8_t>(s.id >> 24)};
    uint32_t got_crc = util::Crc32c(id_le, sizeof(id_le));
    got_crc = util::Crc32c(got_crc, s.payload.data(), s.payload.size());
    if (got_crc != want_crc) {
      return Status::Corruption("snapshot: section id " + std::to_string(s.id) +
                                " CRC mismatch");
    }
    snap.sections.push_back(std::move(s));
  }
  VCD_RETURN_IF_ERROR(r.Finish("snapshot"));
  return snap;
}

}  // namespace vcd::ckpt
