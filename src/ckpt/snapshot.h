#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

/// \file snapshot.h
/// The versioned, sectioned snapshot container (docs/FORMATS.md).
///
/// Layout, all integers little-endian:
///
///   magic          4 bytes  'V' 'C' 'K' '1'
///   format_version u32      3; every other version is refused
///   epoch          u64      monotonically increasing checkpoint epoch
///   section_count  u32
///   per section:
///     id           u32      see kSection* below
///     payload_len  u64
///     crc32c       u32      CRC-32C (Castagnoli) of the LE id bytes
///                           followed by the payload bytes (covering the id
///                           means a flipped id bit cannot silently
///                           reassign a payload's meaning)
///     payload      payload_len bytes
///
/// The container is deliberately dumb: it knows section ids and checksums,
/// not what the payloads mean (state_codec.h does). Decoding verifies every
/// section CRC and all length bounds; any violation — truncation from a torn
/// write, a flipped bit, trailing garbage — is a typed Corruption, never a
/// crash or an over-read.

namespace vcd::ckpt {

inline constexpr uint8_t kSnapshotMagic[4] = {'V', 'C', 'K', '1'};
/// The only format version this build reads or writes (docs/FORMATS.md
/// says what versions 2 and 3 changed).
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// Section ids. Values are part of the on-disk format; never renumber.
inline constexpr uint32_t kSectionMeta = 1;     ///< detector parameters
inline constexpr uint32_t kSectionQueryDb = 2;  ///< embedded VCDQ bytes
inline constexpr uint32_t kSectionStreams = 3;  ///< per-stream monitor state
inline constexpr uint32_t kSectionMatches = 4;  ///< merged match log
inline constexpr uint32_t kSectionExec = 5;     ///< executor counters
inline constexpr uint32_t kSectionDriver = 6;   ///< vcdctl ingest positions
inline constexpr uint32_t kSectionQos = 7;      ///< overload-governor machines

/// One decoded section: id + raw payload (CRC already verified).
struct Section {
  uint32_t id = 0;
  std::vector<uint8_t> payload;
};

/// A decoded snapshot container.
struct Snapshot {
  uint64_t epoch = 0;
  std::vector<Section> sections;

  /// First section with \p id, or null.
  const Section* Find(uint32_t id) const {
    for (const Section& s : sections) {
      if (s.id == id) return &s;
    }
    return nullptr;
  }
};

/// Serializes \p sections under \p epoch. Under an armed
/// faultfx::Site::kCkptCrcCorrupt the encoded image is bit-flipped after
/// the checksums are computed — the file lands on disk corrupt, exactly
/// like a storage-layer flip, exercising the manifest fallback path.
std::vector<uint8_t> EncodeSnapshot(uint64_t epoch,
                                    const std::vector<Section>& sections);

/// Parses and verifies a snapshot image. Typed failures:
/// - Corruption: bad magic, truncated header/section, CRC mismatch,
///   trailing bytes;
/// - FailedPrecondition: a format_version other than
///   kSnapshotFormatVersion, older or newer (the message names it).
Result<Snapshot> DecodeSnapshot(const uint8_t* data, size_t size);

}  // namespace vcd::ckpt
