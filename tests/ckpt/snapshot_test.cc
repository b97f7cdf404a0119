#include "ckpt/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "ckpt/state_codec.h"
#include "core/config.h"
#include "util/status.h"

namespace vcd::ckpt {
namespace {

std::vector<Section> TwoSections() {
  Section a;
  a.id = kSectionMeta;
  a.payload = {1, 2, 3, 4, 5};
  Section b;
  b.id = kSectionQueryDb;
  b.payload = {};  // empty payloads are legal
  return {a, b};
}

TEST(SnapshotTest, RoundTrip) {
  const auto image = EncodeSnapshot(42, TwoSections());
  auto snap = DecodeSnapshot(image.data(), image.size());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->epoch, 42u);
  ASSERT_EQ(snap->sections.size(), 2u);
  EXPECT_EQ(snap->sections[0].id, kSectionMeta);
  EXPECT_EQ(snap->sections[0].payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(snap->sections[1].id, kSectionQueryDb);
  EXPECT_TRUE(snap->sections[1].payload.empty());
  EXPECT_EQ(snap->Find(kSectionMeta), &snap->sections[0]);
  EXPECT_EQ(snap->Find(kSectionDriver), nullptr);
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  const auto image = EncodeSnapshot(1, {});
  auto snap = DecodeSnapshot(image.data(), image.size());
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(snap->sections.empty());
}

TEST(SnapshotTest, TruncationMatrix) {
  // Every strict prefix of the image must decode to Corruption — the torn
  // write produced by a crash mid-checkpoint, at every possible cut point.
  const auto image = EncodeSnapshot(7, TwoSections());
  for (size_t cut = 0; cut < image.size(); ++cut) {
    auto snap = DecodeSnapshot(image.data(), cut);
    EXPECT_EQ(snap.status().code(), StatusCode::kCorruption)
        << "cut at " << cut << " of " << image.size();
  }
  // And one byte of trailing garbage is equally fatal.
  auto padded = image;
  padded.push_back(0);
  EXPECT_EQ(DecodeSnapshot(padded.data(), padded.size()).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotTest, EveryBitFlipIsDetected) {
  // CRC-32C catches any single-bit flip in a section payload; flips in the
  // header hit the magic/version/length validation instead. Either way the
  // decode must fail typed, never crash.
  const auto image = EncodeSnapshot(7, TwoSections());
  for (size_t byte = 0; byte < image.size(); ++byte) {
    auto flipped = image;
    flipped[byte] ^= 0x10;
    auto snap = DecodeSnapshot(flipped.data(), flipped.size());
    if (snap.ok()) {
      // The only survivable flip is inside the epoch field (no checksum of
      // its own; the Checkpointer cross-checks it against the MANIFEST).
      EXPECT_GE(byte, 8u);
      EXPECT_LT(byte, 16u);
      EXPECT_NE(snap->epoch, 7u);
    }
  }
}

TEST(SnapshotTest, BadMagicIsCorruption) {
  auto image = EncodeSnapshot(7, TwoSections());
  image[0] = 'X';
  EXPECT_EQ(DecodeSnapshot(image.data(), image.size()).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotTest, NewerFormatVersionIsFailedPrecondition) {
  auto image = EncodeSnapshot(7, TwoSections());
  image[4] = static_cast<uint8_t>(kSnapshotFormatVersion + 1);  // LE u32
  EXPECT_EQ(DecodeSnapshot(image.data(), image.size()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, OlderFormatVersionIsFailedPrecondition) {
  // Version 2 snapshots lead each candidate with a ladder level version 3
  // dropped; they are refused by version, not misread as corrupt.
  auto image = EncodeSnapshot(7, TwoSections());
  image[4] = static_cast<uint8_t>(kSnapshotFormatVersion - 1);  // LE u32
  const Status st = DecodeSnapshot(image.data(), image.size()).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.ToString().find("format version 2"), std::string::npos) << st.ToString();
}

TEST(StateCodecTest, MetaRoundTripAndCheck) {
  core::DetectorConfig config;
  config.K = 48;
  config.hash_seed = 0xfeed;
  config.delta = 0.7;
  config.window_seconds = 5.0;

  SnapshotState state;
  StampMeta(config, &state);
  state.query_db = {'V', 'C', 'D', 'Q'};
  state.next_stream_id = 9;
  state.next_seq = 1234;

  const auto sections = EncodeState(state);
  const auto image = EncodeSnapshot(3, sections);
  auto snap = DecodeSnapshot(image.data(), image.size());
  ASSERT_TRUE(snap.ok());
  auto back = DecodeState(*snap);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 3u);
  EXPECT_EQ(back->k, 48);
  EXPECT_EQ(back->hash_seed, 0xfeedu);
  EXPECT_EQ(back->next_stream_id, 9);
  EXPECT_EQ(back->next_seq, 1234u);
  EXPECT_EQ(back->query_db, state.query_db);
  EXPECT_TRUE(back->driver.empty());

  EXPECT_TRUE(CheckMeta(*back, config).ok());
  core::DetectorConfig wrong = config;
  wrong.K = 32;
  EXPECT_EQ(CheckMeta(*back, wrong).code(), StatusCode::kFailedPrecondition);
  wrong = config;
  wrong.hash_seed = 1;
  EXPECT_EQ(CheckMeta(*back, wrong).code(), StatusCode::kFailedPrecondition);
  wrong = config;
  wrong.delta = 0.9;
  EXPECT_EQ(CheckMeta(*back, wrong).code(), StatusCode::kFailedPrecondition);
  wrong = config;
  wrong.use_index = !config.use_index;
  EXPECT_EQ(CheckMeta(*back, wrong).code(), StatusCode::kFailedPrecondition);
  wrong = config;
  wrong.enable_pruning = !config.enable_pruning;
  EXPECT_EQ(CheckMeta(*back, wrong).code(), StatusCode::kFailedPrecondition);
}

TEST(StateCodecTest, DriverSectionRoundTrips) {
  core::DetectorConfig config;
  SnapshotState state;
  StampMeta(config, &state);
  state.driver.push_back(DriverFileState{"a.vcds", 17, false, 3});
  state.driver.push_back(DriverFileState{"b.vcds", 500, true, 0});
  const auto image = EncodeSnapshot(1, EncodeState(state));
  auto snap = DecodeSnapshot(image.data(), image.size());
  ASSERT_TRUE(snap.ok());
  auto back = DecodeState(*snap);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->driver.size(), 2u);
  EXPECT_EQ(back->driver[0].path, "a.vcds");
  EXPECT_EQ(back->driver[0].frames_fed, 17);
  EXPECT_FALSE(back->driver[0].done);
  EXPECT_EQ(back->driver[0].stream_id, 3);
  EXPECT_EQ(back->driver[1].path, "b.vcds");
  EXPECT_TRUE(back->driver[1].done);
}

TEST(StateCodecTest, MissingRequiredSectionIsCorruption) {
  core::DetectorConfig config;
  SnapshotState state;
  StampMeta(config, &state);
  auto sections = EncodeState(state);
  for (size_t drop = 0; drop < sections.size(); ++drop) {
    std::vector<Section> partial;
    for (size_t i = 0; i < sections.size(); ++i) {
      if (i != drop) partial.push_back(sections[i]);
    }
    const auto image = EncodeSnapshot(1, partial);
    auto snap = DecodeSnapshot(image.data(), image.size());
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(DecodeState(*snap).status().code(), StatusCode::kCorruption)
        << "dropped section " << sections[drop].id;
  }
}

TEST(StateCodecTest, TruncatedSectionPayloadIsCorruption) {
  // Cut *inside* a section payload (the container CRC would catch this on
  // disk; here we hand the codec an internally-consistent container whose
  // STREAMS payload lies about its counts).
  core::DetectorConfig config;
  SnapshotState state;
  StampMeta(config, &state);
  auto sections = EncodeState(state);
  for (Section& s : sections) {
    if (s.id != kSectionStreams && s.id != kSectionMatches) continue;
    Section cut = s;
    cut.payload.resize(cut.payload.size() / 2);
    std::vector<Section> doctored;
    for (const Section& orig : sections) {
      doctored.push_back(orig.id == cut.id ? cut : orig);
    }
    const auto image = EncodeSnapshot(1, doctored);
    auto snap = DecodeSnapshot(image.data(), image.size());
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(DecodeState(*snap).status().code(), StatusCode::kCorruption);
  }
}

TEST(StateCodecTest, HostileCountDoesNotAllocate) {
  // A STREAMS section claiming 2^32-1 streams in a 4-byte payload must be
  // rejected by the count-fits-payload guard before any resize.
  core::DetectorConfig config;
  SnapshotState state;
  StampMeta(config, &state);
  auto sections = EncodeState(state);
  for (Section& s : sections) {
    if (s.id == kSectionStreams || s.id == kSectionMatches) {
      s.payload = {0xff, 0xff, 0xff, 0xff};
    }
  }
  const auto image = EncodeSnapshot(1, sections);
  auto snap = DecodeSnapshot(image.data(), image.size());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(DecodeState(*snap).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace vcd::ckpt
