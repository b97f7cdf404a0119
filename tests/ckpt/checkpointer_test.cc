#include "ckpt/checkpointer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "core/config.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/faultfx.h"
#include "util/status.h"

namespace vcd::ckpt {
namespace {

class CheckpointerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/vcd_ckpt_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    faultfx::Injector::Instance().Reset();
    std::string cmd = "rm -rf " + dir_;
    std::system(cmd.c_str());
  }

  SnapshotState MakeState(int next_stream_id) {
    core::DetectorConfig config;
    SnapshotState state;
    StampMeta(config, &state);
    state.next_stream_id = next_stream_id;
    state.query_db = {'V', 'C', 'D', 'Q'};
    return state;
  }

  static bool Exists(const std::string& path) {
    return ::access(path.c_str(), F_OK) == 0;
  }

  std::string dir_;
};

TEST_F(CheckpointerTest, FreshDirectoryStartsAtEpochOne) {
  auto c = Checkpointer::Open(dir_ + "/sub");  // creates the directory
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c->next_epoch(), 1u);
  EXPECT_EQ(c->LoadLatest().status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointerTest, SaveLoadRoundTripAndEpochAdvance) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(5)).ok());
  EXPECT_EQ(c->next_epoch(), 2u);
  ASSERT_TRUE(c->Save(MakeState(7)).ok());
  EXPECT_EQ(c->next_epoch(), 3u);

  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->epoch, 2u);
  EXPECT_EQ(state->next_stream_id, 7);
}

TEST_F(CheckpointerTest, ReopenResumesEpochSequence) {
  {
    auto c = Checkpointer::Open(dir_);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c->Save(MakeState(1)).ok());
    ASSERT_TRUE(c->Save(MakeState(2)).ok());
  }
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->next_epoch(), 3u);
  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->epoch, 2u);
}

TEST_F(CheckpointerTest, ManifestKeepsLastTwoSnapshots) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(c->Save(MakeState(i + 1)).ok());
  // Epochs 1 and 2 were dropped from the manifest and unlinked.
  EXPECT_FALSE(Exists(dir_ + "/ckpt-0000000000000001.vck"));
  EXPECT_FALSE(Exists(dir_ + "/ckpt-0000000000000002.vck"));
  EXPECT_TRUE(Exists(dir_ + "/ckpt-0000000000000003.vck"));
  EXPECT_TRUE(Exists(dir_ + "/ckpt-0000000000000004.vck"));
}

TEST_F(CheckpointerTest, CorruptNewestFallsBackToPrevious) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(10)).ok());
  ASSERT_TRUE(c->Save(MakeState(20)).ok());
  // Flip one payload bit in the newest snapshot — the storage layer lied.
  const std::string newest = dir_ + "/ckpt-0000000000000002.vck";
  std::string image;
  ASSERT_TRUE(util::ReadFileToString(newest, &image).ok());
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x01);
  {
    auto w = util::AtomicFileWriter::Open(newest);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append(image).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->epoch, 1u);
  EXPECT_EQ(state->next_stream_id, 10);
}

TEST_F(CheckpointerTest, TornNewestFallsBackToPrevious) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(10)).ok());
  ASSERT_TRUE(c->Save(MakeState(20)).ok());
  const std::string newest = dir_ + "/ckpt-0000000000000002.vck";
  std::string image;
  ASSERT_TRUE(util::ReadFileToString(newest, &image).ok());
  image.resize(image.size() / 3);  // torn write: only a prefix survived
  {
    auto w = util::AtomicFileWriter::Open(newest);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append(image).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->epoch, 1u);
}

TEST_F(CheckpointerTest, AllSnapshotsCorruptIsTypedCorruption) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(1)).ok());
  ASSERT_TRUE(c->Save(MakeState(2)).ok());
  for (const char* name :
       {"ckpt-0000000000000001.vck", "ckpt-0000000000000002.vck"}) {
    auto w = util::AtomicFileWriter::Open(dir_ + "/" + name);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append("garbage").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  EXPECT_EQ(c->LoadLatest().status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointerTest, OtherFormatVersionIsFailedPreconditionNotCorruption) {
  // Snapshots of another format version are skipped like unreadable ones,
  // but they are not corrupt: the restore-corruption counter stays 0, and
  // when no entry loads the caller hears the version, not "unreadable".
  obs::MetricsRegistry registry;
  auto c = Checkpointer::Open(dir_, &registry);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(1)).ok());
  ASSERT_TRUE(c->Save(MakeState(2)).ok());
  for (const char* name :
       {"ckpt-0000000000000001.vck", "ckpt-0000000000000002.vck"}) {
    const std::string path = dir_ + "/" + name;
    std::string image;
    ASSERT_TRUE(util::ReadFileToString(path, &image).ok());
    image[4] = static_cast<char>(kSnapshotFormatVersion + 1);  // LE u32
    auto w = util::AtomicFileWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append(image).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  const Status st = c->LoadLatest().status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_NE(st.ToString().find("format version"), std::string::npos) << st.ToString();
  int64_t corruption = -1;
  for (const obs::MetricSnapshot& m : registry.Collect()) {
    if (m.name == "vcd_ckpt_restore_corruption_total") corruption = m.value;
  }
  EXPECT_EQ(corruption, 0);
}

TEST_F(CheckpointerTest, BadManifestHeaderIsCorruption) {
  {
    auto w = util::AtomicFileWriter::Open(dir_ + "/MANIFEST");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append("NOT-A-MANIFEST\n").ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  EXPECT_EQ(Checkpointer::Open(dir_).status().code(), StatusCode::kCorruption);
}

TEST_F(CheckpointerTest, MalformedManifestLineIsSkipped) {
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(42)).ok());
  std::string manifest;
  ASSERT_TRUE(util::ReadFileToString(dir_ + "/MANIFEST", &manifest).ok());
  manifest += "not an entry\n";
  {
    auto w = util::AtomicFileWriter::Open(dir_ + "/MANIFEST");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Append(manifest).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  auto again = Checkpointer::Open(dir_);
  ASSERT_TRUE(again.ok());
  auto state = again->LoadLatest();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->next_stream_id, 42);
}

TEST_F(CheckpointerTest, InjectedWriteFailureDoesNotAdvanceManifest) {
  if (!faultfx::kEnabled) GTEST_SKIP() << "faultfx compiled out";
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(10)).ok());
  for (const faultfx::Site site :
       {faultfx::Site::kCkptWriteError, faultfx::Site::kCkptShortWrite,
        faultfx::Site::kCkptRenameError}) {
    faultfx::ScopedFault fault(site, faultfx::Plan{});
    EXPECT_FALSE(c->Save(MakeState(99)).ok()) << faultfx::SiteName(site);
  }
  // None of the failed attempts consumed an epoch or touched the manifest:
  // a restore still sees the last good snapshot.
  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->epoch, 1u);
  EXPECT_EQ(state->next_stream_id, 10);
  faultfx::Injector::Instance().Reset();
  ASSERT_TRUE(c->Save(MakeState(11)).ok());
  auto after = c->LoadLatest();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 2u);
}

TEST_F(CheckpointerTest, InjectedCrcCorruptionFallsBackAtRestore) {
  if (!faultfx::kEnabled) GTEST_SKIP() << "faultfx compiled out";
  auto c = Checkpointer::Open(dir_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->Save(MakeState(10)).ok());
  {
    // The second snapshot lands on disk bit-flipped (encode-time injection,
    // keyed by epoch 2) — Save itself cannot tell, exactly like silent
    // storage corruption.
    faultfx::Plan plan;
    plan.key_filter = 2;
    faultfx::ScopedFault fault(faultfx::Site::kCkptCrcCorrupt, plan);
    ASSERT_TRUE(c->Save(MakeState(20)).ok());
  }
  auto state = c->LoadLatest();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->epoch, 1u);
  EXPECT_EQ(state->next_stream_id, 10);
}

}  // namespace
}  // namespace vcd::ckpt
