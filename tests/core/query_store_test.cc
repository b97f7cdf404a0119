#include "core/query_store.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/logging.h"

#include "core/detector.h"
#include "util/rng.h"

namespace vcd::core {
namespace {

QueryDb MakeDb(int k = 16, int n = 3, uint64_t seed = 0x5eed) {
  QueryDb db;
  db.k = k;
  db.hash_seed = seed;
  Rng rng(9);
  for (int q = 0; q < n; ++q) {
    StoredQuery sq;
    sq.id = q + 1;
    sq.length_frames = 50 + q;
    sq.duration_seconds = 20.5 + q;
    sq.sketch.mins.resize(static_cast<size_t>(k));
    for (auto& v : sq.sketch.mins) v = rng.Next();
    db.queries.push_back(std::move(sq));
  }
  return db;
}

TEST(QueryStoreTest, RoundTrip) {
  QueryDb db = MakeDb();
  auto bytes = SerializeQueries(db);
  ASSERT_TRUE(bytes.ok());
  auto back = DeserializeQueries(bytes->data(), bytes->size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->k, db.k);
  EXPECT_EQ(back->hash_seed, db.hash_seed);
  ASSERT_EQ(back->queries.size(), db.queries.size());
  for (size_t i = 0; i < db.queries.size(); ++i) {
    EXPECT_EQ(back->queries[i].id, db.queries[i].id);
    EXPECT_EQ(back->queries[i].length_frames, db.queries[i].length_frames);
    EXPECT_NEAR(back->queries[i].duration_seconds, db.queries[i].duration_seconds,
                1e-3);
    EXPECT_EQ(back->queries[i].sketch, db.queries[i].sketch);
  }
}

TEST(QueryStoreTest, EmptyDbRoundTrips) {
  QueryDb db;
  db.k = 8;
  db.hash_seed = 1;
  auto bytes = SerializeQueries(db);
  ASSERT_TRUE(bytes.ok());
  auto back = DeserializeQueries(bytes->data(), bytes->size());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->queries.empty());
}

TEST(QueryStoreTest, SerializeValidation) {
  QueryDb db = MakeDb();
  db.queries[1].sketch.mins.resize(5);  // wrong K
  EXPECT_FALSE(SerializeQueries(db).ok());
  db = MakeDb();
  db.k = 0;
  EXPECT_FALSE(SerializeQueries(db).ok());
  db = MakeDb();
  db.queries[0].duration_seconds = -1;
  EXPECT_FALSE(SerializeQueries(db).ok());
}

TEST(QueryStoreTest, DeserializeRejectsCorruption) {
  QueryDb db = MakeDb();
  auto bytes = SerializeQueries(db).value();
  // Bad magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_EQ(DeserializeQueries(bad.data(), bad.size()).status().code(),
            StatusCode::kCorruption);
  // Truncated.
  EXPECT_EQ(DeserializeQueries(bytes.data(), bytes.size() - 7).status().code(),
            StatusCode::kCorruption);
  // Too short for the header.
  EXPECT_FALSE(DeserializeQueries(bytes.data(), 4).ok());
  // Bad version.
  bad = bytes;
  bad[4] = 99;
  EXPECT_FALSE(DeserializeQueries(bad.data(), bad.size()).ok());
}

TEST(QueryStoreTest, CorruptionMatrix) {
  // Truncate the serialized store at every section boundary and one byte to
  // either side of it: all must be rejected as kCorruption, never accepted
  // and never crash/overread (run under ASan in CI).
  QueryDb db = MakeDb(/*k=*/16, /*n=*/3);
  const auto bytes = SerializeQueries(db).value();
  constexpr size_t kHeader = 4 + 1 + 4 + 8 + 4;
  const size_t per_query = 4 + 4 + 4 + 16 * 8;
  std::vector<size_t> boundaries = {0, 4, 5, 9, 17, kHeader};
  for (size_t q = 1; q <= db.queries.size(); ++q) {
    boundaries.push_back(kHeader + q * per_query);  // end of record q
    boundaries.push_back(kHeader + (q - 1) * per_query + 12);  // after metadata
  }
  for (size_t b : boundaries) {
    for (int delta = -1; delta <= 1; ++delta) {
      if (delta < 0 && b == 0) continue;
      const size_t cut = b + static_cast<size_t>(delta);
      if (cut > bytes.size()) continue;
      auto r = DeserializeQueries(bytes.data(), cut);
      if (cut == bytes.size()) {
        EXPECT_TRUE(r.ok()) << "full-size parse must succeed";
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
            << "cut at " << cut << " of " << bytes.size();
      }
    }
  }
  // Padding past the true end must also be rejected (trailing bytes).
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DeserializeQueries(padded.data(), padded.size()).status().code(),
            StatusCode::kCorruption);
}

TEST(QueryStoreTest, DeserializeRejectsHostileHeaders) {
  QueryDb db = MakeDb(/*k=*/16, /*n=*/1);
  const auto bytes = SerializeQueries(db).value();
  // Implausibly large K: must fail the sanity cap, not allocate gigabytes.
  auto bad = bytes;
  bad[5] = 0x7f;  // K := 0x7fxxxxxx (big-endian u32)
  auto r = DeserializeQueries(bad.data(), bad.size());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // Huge count with a tiny body: the overflow-safe division check fires
  // before any allocation sized from the count field.
  bad = bytes;
  bad[17] = 0xff;
  bad[18] = 0xff;
  bad[19] = 0xff;
  bad[20] = 0xff;
  r = DeserializeQueries(bad.data(), bad.size());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // K = 0 is invalid regardless of body size.
  bad = bytes;
  bad[5] = bad[6] = bad[7] = bad[8] = 0;
  EXPECT_EQ(DeserializeQueries(bad.data(), bad.size()).status().code(),
            StatusCode::kCorruption);
}

TEST(QueryStoreTest, FileRoundTrip) {
  const std::string path = "/tmp/vcd_query_store_test.vcdq";
  QueryDb db = MakeDb(32, 5);
  ASSERT_TRUE(SaveQueriesFile(db, path).ok());
  auto back = LoadQueriesFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->queries.size(), 5u);
  EXPECT_EQ(back->queries[4].sketch, db.queries[4].sketch);
  std::remove(path.c_str());
  EXPECT_EQ(LoadQueriesFile(path).status().code(), StatusCode::kNotFound);
}

TEST(QueryStoreTest, DetectorExportImportRoundTrip) {
  // Export a detector's portfolio, reload it into a fresh detector, and
  // check the loaded queries behave identically.
  DetectorConfig config;
  config.K = 64;
  auto a = CopyDetector::Create(config).value();
  Rng rng(3);
  std::vector<features::CellId> q1, q2;
  for (int i = 0; i < 40; ++i) q1.push_back(static_cast<features::CellId>(rng.Uniform(1000)));
  for (int i = 0; i < 30; ++i) q2.push_back(static_cast<features::CellId>(rng.Uniform(1000)));
  ASSERT_TRUE(a->AddQueryCells(1, q1, 16.0).ok());
  ASSERT_TRUE(a->AddQueryCells(2, q2, 12.0).ok());

  QueryDb db;
  db.k = config.K;
  db.hash_seed = config.hash_seed;
  for (auto& [id, len, dur, sk] : a->ExportQueries()) {
    db.queries.push_back(StoredQuery{id, len, dur, std::move(sk)});
  }
  auto bytes = SerializeQueries(db).value();
  auto loaded = DeserializeQueries(bytes.data(), bytes.size()).value();

  auto b = CopyDetector::Create(config).value();
  for (const StoredQuery& q : loaded.queries) {
    ASSERT_TRUE(
        b->AddQuerySketch(q.id, q.sketch, q.length_frames, q.duration_seconds).ok());
  }
  EXPECT_EQ(b->ExportQueries().size(), 2u);
  // Replay a stream embedding q1 through both detectors: identical matches.
  auto feed = [&](CopyDetector* det) {
    int64_t slot = 0;
    for (int i = 0; i < 30; ++i, ++slot) {
      VCD_CHECK(det->ProcessFingerprint(slot * 12, slot / 2.5,
                                        5000 + static_cast<features::CellId>(i))
                    .ok(),
                "feed");
    }
    for (features::CellId id : q1) {
      VCD_CHECK(det->ProcessFingerprint(slot * 12, slot / 2.5, id).ok(), "feed");
      ++slot;
    }
    VCD_CHECK(det->Finish().ok(), "finish");
  };
  a->ResetStream();
  feed(a.get());
  feed(b.get());
  ASSERT_EQ(a->matches().size(), b->matches().size());
  for (size_t i = 0; i < a->matches().size(); ++i) {
    EXPECT_EQ(a->matches()[i].query_id, b->matches()[i].query_id);
    EXPECT_EQ(a->matches()[i].end_frame, b->matches()[i].end_frame);
  }
  EXPECT_FALSE(a->matches().empty());
}

TEST(QueryStoreTest, AddQuerySketchValidation) {
  DetectorConfig config;
  config.K = 16;
  auto det = CopyDetector::Create(config).value();
  sketch::Sketch wrong;
  wrong.mins.resize(8);
  EXPECT_FALSE(det->AddQuerySketch(1, wrong, 10, 5.0).ok());
  sketch::Sketch right;
  right.mins.resize(16, 7);
  EXPECT_FALSE(det->AddQuerySketch(1, right, 0, 5.0).ok());
  EXPECT_FALSE(det->AddQuerySketch(1, right, 10, 0.0).ok());
  EXPECT_TRUE(det->AddQuerySketch(1, right, 10, 5.0).ok());
}

}  // namespace
}  // namespace vcd::core
