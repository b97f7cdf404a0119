/// \file partial_decoder_golden_test.cc
/// Byte-identity pin of the bitstream decoders against a recorded output.
///
/// One seeded stream is encoded, then damaged in 400 seeded ways: bit
/// flips, stream truncations, key-frame payload truncations (the length
/// field is rewritten to match, so the entropy reader runs off the end of
/// its payload) and overwritten runs of 0x00, 0xFF and random bytes. Each
/// case is decoded by `PartialDecoder` in strict and in resync mode, and by
/// the full `Decoder`. Per decode the final status code and message, every
/// `PartialDecoderStats` counter, each key frame's index and degraded flag
/// and a digest of the DC values (or, for the full decoder, of the pixels)
/// are compared line by line with tests/data/partial_decoder_golden.txt.
/// The first lines are the digest of the intact stream, fully decoded.
/// Counter keys: kf = key_frames, pskip = p_frames_skipped, corrupt =
/// corruption_events, scans = resync_scans, skipped = bytes_skipped,
/// degraded = degraded_frames; `frames` lists each emitted key frame's
/// index, suffixed `d` when degraded.
///
/// On a mismatch the test writes its full output next to the gtest temp
/// dir and names the file; after an intended output change, review that
/// diff and copy the file over tests/data/partial_decoder_golden.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "video/codec.h"
#include "video/partial_decoder.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

#ifndef VCD_TEST_DATA_DIR
#error "VCD_TEST_DATA_DIR must name tests/data"
#endif

namespace vcd::video {
namespace {

constexpr int kCases = 400;
constexpr uint64_t kSeed = 20080407;

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

/// FNV-1a, 64-bit.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Byte(uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void Bytes(const std::vector<uint8_t>& v) {
    for (uint8_t b : v) Byte(b);
  }
  void U32(uint32_t v) {
    for (int s = 0; s < 32; s += 8) Byte(static_cast<uint8_t>(v >> s));
  }
};

/// 96×64 (12×8 luma blocks), 24 frames at GOP 6: four key frames.
std::vector<uint8_t> EncodeStream() {
  SceneModel model = SceneModel::Generate(kSeed, 10.0);
  RenderOptions ro;
  ro.width = 96;
  ro.height = 64;
  ro.fps = 10.0;
  auto clip = RenderVideo(model, 0.0, 24 / ro.fps, ro);
  VCD_CHECK(clip.ok(), "render failed");
  CodecParams p;
  p.width = ro.width;
  p.height = ro.height;
  p.fps = ro.fps;
  p.gop_size = 6;
  p.quantizer = 3;
  auto bytes = Encoder::EncodeVideo(*clip, p);
  VCD_CHECK(bytes.ok(), "encode failed");
  return std::move(bytes).value();
}

uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

/// Byte offsets of every key-frame record (marker byte) in a valid stream.
std::vector<size_t> KeyFrameOffsets(const std::vector<uint8_t>& bytes) {
  std::vector<size_t> offs;
  for (size_t pos = StreamHeaderSize(); pos + 5 <= bytes.size();
       pos += 5 + GetU32(&bytes[pos + 1])) {
    if (bytes[pos] == static_cast<uint8_t>(FrameType::kIntra)) offs.push_back(pos);
  }
  return offs;
}

/// Damages a copy of \p clean in the way case \p index selects.
std::vector<uint8_t> Damage(const std::vector<uint8_t>& clean, int index,
                            std::string* kind) {
  Rng rng(kSeed + static_cast<uint64_t>(index));
  std::vector<uint8_t> bytes = clean;
  const std::vector<size_t> keys = KeyFrameOffsets(clean);
  // Three in four damage sites land in a key-frame payload, where the
  // partial decoder's entropy reader runs; the rest anywhere past the header.
  const auto offset = [&] {
    if (rng.Uniform(4) == 0) {
      return StreamHeaderSize() + rng.Uniform(clean.size() - StreamHeaderSize());
    }
    const size_t at = keys[rng.Uniform(keys.size())];
    return at + 5 + rng.Uniform(GetU32(&clean[at + 1]));
  };
  switch (index % 6) {
    case 0: {
      *kind = "flip";
      const int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < flips; ++i) {
        bytes[offset()] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
      }
      break;
    }
    case 1:
      *kind = "truncate-stream";
      bytes.resize(offset());
      break;
    case 2: {
      *kind = "truncate-payload";
      const size_t at = keys[rng.Uniform(keys.size())];
      const uint32_t len = GetU32(&bytes[at + 1]);
      const uint32_t cut = static_cast<uint32_t>(rng.Uniform(len));
      for (int s = 0; s < 4; ++s) {
        bytes[at + 1 + s] = static_cast<uint8_t>(cut >> (24 - 8 * s));
      }
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at + 5 + cut),
                  bytes.begin() + static_cast<std::ptrdiff_t>(at + 5 + len));
      break;
    }
    default: {
      static const char* const kRuns[] = {"run-00", "run-ff", "run-random"};
      *kind = kRuns[index % 6 - 3];
      const size_t start = offset();
      const size_t end = std::min(bytes.size(), start + 1 + rng.Uniform(64));
      for (size_t i = start; i < end; ++i) {
        bytes[i] = index % 6 == 3   ? uint8_t{0x00}
                   : index % 6 == 4 ? uint8_t{0xFF}
                                    : static_cast<uint8_t>(rng.Next());
      }
      break;
    }
  }
  return bytes;
}

/// Partial decode to the end (or, in strict mode, to the first error).
std::string RunPartial(const std::vector<uint8_t>& bytes, bool resync) {
  PartialDecoder pd;
  pd.set_resync_on_corruption(resync);
  Status st = pd.Open(bytes.data(), bytes.size());
  std::string frames;
  Digest dc;
  DcFrame f;
  for (int guard = 0; st.ok() && guard < 10000; ++guard) {
    st = pd.NextKeyFrame(&f);
    if (!st.ok()) break;
    frames += Format("%s%lld%s", frames.empty() ? "" : ",",
                     static_cast<long long>(f.frame_index), f.degraded ? "d" : "");
    for (float v : f.dc) dc.U32(std::bit_cast<uint32_t>(v));
  }
  const PartialDecoderStats& s = pd.stats();
  return Format(
      "  %s %s kf=%lld pskip=%lld corrupt=%lld scans=%lld skipped=%lld "
      "degraded=%lld frames=%s dc=%016llx\n",
      resync ? "resync" : "strict", st.ToString().c_str(),
      static_cast<long long>(s.key_frames), static_cast<long long>(s.p_frames_skipped),
      static_cast<long long>(s.corruption_events),
      static_cast<long long>(s.resync_scans), static_cast<long long>(s.bytes_skipped),
      static_cast<long long>(s.degraded_frames), frames.empty() ? "-" : frames.c_str(),
      static_cast<unsigned long long>(dc.h));
}

/// Full decode to the first non-OK status.
std::string RunFull(const std::vector<uint8_t>& bytes) {
  Decoder dec;
  Status st = dec.Open(bytes.data(), bytes.size());
  int decoded = 0;
  Digest pixels;
  Frame f;
  for (int guard = 0; st.ok() && guard < 10000; ++guard) {
    st = dec.NextFrame(&f);
    if (!st.ok()) break;
    ++decoded;
    pixels.Bytes(f.y_plane());
    pixels.Bytes(f.cb_plane());
    pixels.Bytes(f.cr_plane());
  }
  return Format("  full %s frames=%d pixels=%016llx\n", st.ToString().c_str(), decoded,
                static_cast<unsigned long long>(pixels.h));
}

std::string RenderAll() {
  const std::vector<uint8_t> clean = EncodeStream();
  std::string out = Format("intact bytes=%zu\n", clean.size()) + RunFull(clean);
  for (int i = 0; i < kCases; ++i) {
    std::string kind;
    const std::vector<uint8_t> bytes = Damage(clean, i, &kind);
    out += Format("case %d %s bytes=%zu\n", i, kind.c_str(), bytes.size());
    out += RunPartial(bytes, /*resync=*/false);
    out += RunPartial(bytes, /*resync=*/true);
    out += RunFull(bytes);
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(PartialDecoderGoldenTest, OutputMatchesRecordedBytes) {
  const std::string actual = RenderAll();
  const std::string golden_path =
      std::string(VCD_TEST_DATA_DIR) + "/partial_decoder_golden.txt";
  std::ifstream in(golden_path);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;

  const std::string dump = ::testing::TempDir() + "partial_decoder_golden.actual.txt";
  std::ofstream(dump) << actual;
  const auto want = Lines(golden.str());
  const auto got = Lines(actual);
  size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  ADD_FAILURE() << "output differs from " << golden_path << " at line " << i + 1
                << "\n  want: " << (i < want.size() ? want[i] : "<end>")
                << "\n  got:  " << (i < got.size() ? got[i] : "<end>")
                << "\nfull output written to " << dump;
}

}  // namespace
}  // namespace vcd::video
