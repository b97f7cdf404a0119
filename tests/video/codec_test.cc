#include "video/codec.h"

#include <gtest/gtest.h>

#include "util/logging.h"

#include <array>
#include <cmath>

#include "video/codec_internal.h"
#include "video/scene_model.h"
#include "video/synthetic.h"

namespace vcd::video {
namespace {

/// Renders a short test clip of structured synthetic content.
VideoBuffer TestClip(int frames, int w = 64, int h = 48, uint64_t seed = 42) {
  SceneModel model = SceneModel::Generate(seed, 10.0);
  RenderOptions ro;
  ro.width = w;
  ro.height = h;
  ro.fps = 10.0;
  auto video = RenderVideo(model, 0.0, frames / ro.fps, ro);
  VCD_CHECK(video.ok(), "render failed");
  return std::move(video).value();
}

double Psnr(const Frame& a, const Frame& b) {
  double mse = 0;
  for (size_t i = 0; i < a.y_plane().size(); ++i) {
    double d = static_cast<double>(a.y_plane()[i]) - b.y_plane()[i];
    mse += d * d;
  }
  mse /= static_cast<double>(a.y_plane().size());
  if (mse == 0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

TEST(CodecParamsTest, Validation) {
  CodecParams p;
  EXPECT_TRUE(p.Validate().ok());
  p.width = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = CodecParams();
  p.width = 63;
  EXPECT_FALSE(p.Validate().ok());
  p = CodecParams();
  p.quantizer = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = CodecParams();
  p.quantizer = 32;
  EXPECT_FALSE(p.Validate().ok());
  p = CodecParams();
  p.gop_size = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = CodecParams();
  p.fps = -1;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(CodecTest, EncodeDecodeRoundTripQuality) {
  VideoBuffer clip = TestClip(12);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.gop_size = 4;
  p.quantizer = 2;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  auto decoded = Decoder::DecodeVideo(*bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->frames.size(), clip.frames.size());
  for (size_t i = 0; i < clip.frames.size(); ++i) {
    EXPECT_GT(Psnr(clip.frames[i], decoded->frames[i]), 35.0) << "frame " << i;
  }
}

TEST(CodecTest, CoarserQuantizerSmallerStream) {
  VideoBuffer clip = TestClip(8);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.quantizer = 1;
  auto fine = Encoder::EncodeVideo(clip, p);
  p.quantizer = 16;
  auto coarse = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(fine.ok());
  ASSERT_TRUE(coarse.ok());
  EXPECT_LT(coarse->size(), fine->size());
}

TEST(CodecTest, HeaderRoundTrip) {
  VideoBuffer clip = TestClip(2);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 29.97;
  p.gop_size = 12;
  p.quantizer = 5;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  Decoder dec;
  ASSERT_TRUE(dec.Open(bytes->data(), bytes->size()).ok());
  EXPECT_EQ(dec.header().width, 64);
  EXPECT_EQ(dec.header().height, 48);
  EXPECT_NEAR(dec.header().fps, 29.97, 1e-3);
  EXPECT_EQ(dec.header().gop_size, 12);
  EXPECT_EQ(dec.header().quantizer, 5);
}

TEST(CodecTest, GopStructure) {
  VideoBuffer clip = TestClip(10);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.gop_size = 4;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  // Walk the frame markers: frames 0, 4, 8 must be intra.
  size_t pos = StreamHeaderSize();
  int idx = 0;
  while (pos < bytes->size()) {
    uint8_t marker = (*bytes)[pos];
    const bool intra = marker == static_cast<uint8_t>(FrameType::kIntra);
    EXPECT_EQ(intra, idx % 4 == 0) << "frame " << idx;
    uint32_t len = (static_cast<uint32_t>((*bytes)[pos + 1]) << 24) |
                   (static_cast<uint32_t>((*bytes)[pos + 2]) << 16) |
                   (static_cast<uint32_t>((*bytes)[pos + 3]) << 8) | (*bytes)[pos + 4];
    pos += 5 + len;
    ++idx;
  }
  EXPECT_EQ(idx, 10);
}

TEST(CodecTest, DimensionMismatchRejected) {
  Encoder enc;
  CodecParams p;
  p.width = 64;
  p.height = 48;
  ASSERT_TRUE(enc.Init(p).ok());
  Frame wrong = Frame::Create(32, 32).value();
  EXPECT_EQ(enc.AddFrame(wrong).code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, AddFrameBeforeInitFails) {
  Encoder enc;
  Frame f = Frame::Create(64, 48).value();
  EXPECT_EQ(enc.AddFrame(f).code(), StatusCode::kFailedPrecondition);
}

TEST(CodecTest, NonMultipleOf8DimensionsWork) {
  // 36x28: luma pads to 40x32, chroma 18x14 pads to 24x16.
  SceneModel model = SceneModel::Generate(5, 2.0);
  RenderOptions ro;
  ro.width = 36;
  ro.height = 28;
  ro.fps = 10.0;
  auto clip = RenderVideo(model, 0.0, 0.5, ro);
  ASSERT_TRUE(clip.ok());
  CodecParams p;
  p.width = 36;
  p.height = 28;
  p.fps = 10.0;
  p.quantizer = 2;
  auto bytes = Encoder::EncodeVideo(*clip, p);
  ASSERT_TRUE(bytes.ok());
  auto decoded = Decoder::DecodeVideo(*bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->frames.size(), clip->frames.size());
  EXPECT_GT(Psnr(clip->frames[0], decoded->frames[0]), 32.0);
}

TEST(DecoderTest, TruncatedStreamIsCorruption) {
  VideoBuffer clip = TestClip(3);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> cut(bytes->begin(), bytes->begin() + bytes->size() / 2);
  Decoder dec;
  ASSERT_TRUE(dec.Open(cut.data(), cut.size()).ok());
  Frame f;
  Status st = Status::OK();
  while (st.ok()) st = dec.NextFrame(&f);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(DecoderTest, BadMagicRejected) {
  std::vector<uint8_t> junk(64, 0x77);
  Decoder dec;
  EXPECT_EQ(dec.Open(junk.data(), junk.size()).code(), StatusCode::kCorruption);
}

TEST(DecoderTest, TooShortHeaderRejected) {
  std::vector<uint8_t> tiny(4, 'V');
  Decoder dec;
  EXPECT_EQ(dec.Open(tiny.data(), tiny.size()).code(), StatusCode::kCorruption);
}

TEST(DecoderTest, NextFrameAtEndReturnsNotFound) {
  VideoBuffer clip = TestClip(2);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  Decoder dec;
  ASSERT_TRUE(dec.Open(bytes->data(), bytes->size()).ok());
  Frame f;
  ASSERT_TRUE(dec.NextFrame(&f).ok());
  ASSERT_TRUE(dec.NextFrame(&f).ok());
  EXPECT_EQ(dec.NextFrame(&f).code(), StatusCode::kNotFound);
}

TEST(CodecTest, PFramesExploitTemporalRedundancy) {
  // A static clip should compress P-frames far better than I-frames.
  SceneModel model = SceneModel::Generate(9, 20.0);
  RenderOptions ro;
  ro.width = 64;
  ro.height = 48;
  ro.fps = 10.0;
  auto clip = RenderVideo(model, 0.0, 0.8, ro);
  ASSERT_TRUE(clip.ok());
  CodecParams all_i;
  all_i.width = 64;
  all_i.height = 48;
  all_i.fps = 10.0;
  all_i.gop_size = 1;
  CodecParams with_p = all_i;
  with_p.gop_size = 8;
  auto bytes_i = Encoder::EncodeVideo(*clip, all_i);
  auto bytes_p = Encoder::EncodeVideo(*clip, with_p);
  ASSERT_TRUE(bytes_i.ok());
  ASSERT_TRUE(bytes_p.ok());
  EXPECT_LT(bytes_p->size(), bytes_i->size());
}


TEST(CodecTest, MotionCompensationBeatsZeroMotionOnPan) {
  // A strongly panning clip: motion search should shrink the residuals and
  // the bit stream relative to zero-motion prediction.
  SceneModel model = SceneModel::Generate(31, 20.0);
  RenderOptions ro;
  ro.width = 64;
  ro.height = 48;
  ro.fps = 10.0;
  auto base = RenderVideo(model, 0.0, 1.0, ro);
  ASSERT_TRUE(base.ok());
  // Impose a global 3 px/frame horizontal pan by shifting each frame.
  VideoBuffer panned;
  panned.fps = 10.0;
  for (size_t i = 0; i < base->frames.size(); ++i) {
    Frame f = Frame::Create(64, 48).value();
    const int shift = static_cast<int>(i) * 3;
    for (int y = 0; y < 48; ++y) {
      for (int x = 0; x < 64; ++x) {
        f.SetY(x, y, base->frames[0].Y(std::min(63, x + shift), y));
      }
    }
    panned.frames.push_back(std::move(f));
  }
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.gop_size = 10;
  p.motion_search_range = 7;
  auto with_mc = Encoder::EncodeVideo(panned, p);
  p.motion_search_range = 0;
  auto without = Encoder::EncodeVideo(panned, p);
  ASSERT_TRUE(with_mc.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LT(with_mc->size(), without->size());
  // And both still decode to the same content within codec tolerance.
  auto dec = Decoder::DecodeVideo(*with_mc);
  ASSERT_TRUE(dec.ok());
  EXPECT_GT(Psnr(panned.frames.back(), dec->frames.back()), 30.0);
}

TEST(CodecTest, MotionRangeValidated) {
  CodecParams p;
  p.motion_search_range = -1;
  EXPECT_FALSE(p.Validate().ok());
  p.motion_search_range = 16;
  EXPECT_FALSE(p.Validate().ok());
  p.motion_search_range = 15;
  EXPECT_TRUE(p.Validate().ok());
}

TEST(CodecTest, ZeroMotionRangeRoundTrips) {
  VideoBuffer clip = TestClip(8);
  CodecParams p;
  p.width = 64;
  p.height = 48;
  p.fps = 10.0;
  p.gop_size = 4;
  p.motion_search_range = 0;
  auto bytes = Encoder::EncodeVideo(clip, p);
  ASSERT_TRUE(bytes.ok());
  auto dec = Decoder::DecodeVideo(*bytes);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->frames.size(), clip.frames.size());
  EXPECT_GT(Psnr(clip.frames.back(), dec->frames.back()), 30.0);
}

/// Decodes the block in \p bytes both ways; returns the two statuses.
std::pair<Status, Status> DecodeBothWays(const std::vector<uint8_t>& bytes,
                                         int32_t* dc, std::array<int32_t, 64>* coef) {
  int32_t prev_dc = 0;
  BitReader skim(bytes.data(), bytes.size());
  const Status a = internal::BlockStatus(internal::ReadBlockDcOnly(skim, &prev_dc, dc));
  prev_dc = 0;
  BitReader full(bytes.data(), bytes.size());
  const Status b = internal::ReadBlock(&full, &prev_dc, coef);
  return {a, b};
}

TEST(BlockDecodeTest, RunChecksAtTheBlockEnd) {
  // A run of 62 fills the block to its last coefficient; any run after
  // that, even 0, overruns it.
  for (bool extra_run : {false, true}) {
    BitWriter w;
    w.WriteSE(3);
    w.WriteUE(62);
    w.WriteSE(-5);
    if (extra_run) {
      w.WriteUE(0);
      w.WriteSE(1);
    }
    w.WriteUE(63);
    int32_t dc = 0;
    std::array<int32_t, 64> coef;
    const auto [skim, full] = DecodeBothWays(w.Finish(), &dc, &coef);
    if (!extra_run) {
      ASSERT_TRUE(skim.ok()) << skim.ToString();
      ASSERT_TRUE(full.ok()) << full.ToString();
      EXPECT_EQ(dc, 3);
      EXPECT_EQ(coef[63], -5);
    } else {
      EXPECT_EQ(skim.message(), "AC run overruns block");
      EXPECT_EQ(full.message(), "AC run overruns block");
    }
  }
}

TEST(BlockDecodeTest, RunPastInt32RangeOverrunsBlock) {
  // Runs of 2^31 - 1 and more (63-bit codes) must fail the overrun check
  // like any other run past the block, not wrap to a negative position.
  for (uint32_t run : {0x7FFFFFFFu, 0x80000005u, 0xFFFFFFFEu}) {
    BitWriter w;
    w.WriteSE(3);
    w.WriteUE(run);
    w.WriteSE(1);
    w.WriteUE(63);
    int32_t dc = 0;
    std::array<int32_t, 64> coef;
    const auto [skim, full] = DecodeBothWays(w.Finish(), &dc, &coef);
    EXPECT_EQ(skim.message(), "AC run overruns block") << "run " << run;
    EXPECT_EQ(full.message(), "AC run overruns block") << "run " << run;
  }
}

TEST(BlockDecodeTest, DcPredictionWrapsModulo32Bits) {
  // Hostile DC diffs may push the DPCM predictor past int32; it wraps.
  BitWriter w;
  for (int b = 0; b < 2; ++b) {
    w.WriteSE(2147483647);
    w.WriteUE(63);
  }
  const auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  int32_t prev_dc = 0, dc = 0;
  ASSERT_EQ(internal::ReadBlockDcOnly(r, &prev_dc, &dc), internal::BlockError::kNone);
  EXPECT_EQ(dc, 2147483647);
  ASSERT_EQ(internal::ReadBlockDcOnly(r, &prev_dc, &dc), internal::BlockError::kNone);
  EXPECT_EQ(dc, -2);
}

}  // namespace
}  // namespace vcd::video
