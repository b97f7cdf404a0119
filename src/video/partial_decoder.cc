#include "video/partial_decoder.h"

#include "obs/span.h"
#include "util/faultfx.h"
#include "video/codec_internal.h"

namespace vcd::video {

using internal::BlockError;
using internal::BlockStatus;
using internal::kDcQuantStep;
using internal::PadTo8;
using internal::ReadBlockDcOnly;

namespace {

uint32_t ReadLen(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}

bool ValidMarker(uint8_t b) {
  return b == static_cast<uint8_t>(FrameType::kIntra) ||
         b == static_cast<uint8_t>(FrameType::kPredicted);
}

}  // namespace

Status PartialDecoder::Open(const uint8_t* data, size_t size) {
  data_ = data;
  size_ = size;
  frame_index_ = 0;
  stats_ = PartialDecoderStats{};
  return ParseStreamHeader(data, size, &header_, &pos_);
}

bool PartialDecoder::ResyncFrom(size_t from) {
  VCD_OBS_SPAN(metrics_.resync_latency_ns);
  ++stats_.resync_scans;
  VCD_OBS_INC(metrics_.resync_scans_total, 1);
  const size_t start = from;
  for (size_t p = from; p + 5 <= size_; ++p) {
    if (!ValidMarker(data_[p])) continue;
    const size_t next = p + 5 + ReadLen(data_ + p + 1);
    if (next > size_) continue;
    // Accept only boundaries whose length field lands on the stream end or
    // on another plausible frame — one payload byte that happens to look
    // like a marker is not enough to resynchronize on.
    if (next != size_ && !ValidMarker(data_[next])) continue;
    stats_.bytes_skipped += static_cast<int64_t>(p - start);
    VCD_OBS_INC(metrics_.bytes_skipped_total, static_cast<int64_t>(p - start));
    pos_ = p;
    return true;
  }
  if (start < size_) {
    stats_.bytes_skipped += static_cast<int64_t>(size_ - start);
    VCD_OBS_INC(metrics_.bytes_skipped_total,
                static_cast<int64_t>(size_ - start));
  }
  pos_ = size_;
  return false;
}

Status PartialDecoder::NextKeyFrame(DcFrame* out) {
  while (pos_ < size_) {
    if (pos_ + 5 > size_) {
      ++stats_.corruption_events;
      VCD_OBS_INC(metrics_.corruption_events_total, 1);
      if (!resync_) return Status::Corruption("truncated frame header");
      // A torn tail carries no recoverable frame: treat it as end of stream.
      stats_.bytes_skipped += static_cast<int64_t>(size_ - pos_);
      pos_ = size_;
      break;
    }
    const uint8_t marker = data_[pos_];
    const uint32_t len = ReadLen(data_ + pos_ + 1);
    const bool intra = marker == static_cast<uint8_t>(FrameType::kIntra);
    const bool overrun = pos_ + 5 + len > size_;
    const bool injected =
        faultfx::ShouldFire(faultfx::Site::kBitstreamCorruption);
    if (!ValidMarker(marker) || overrun || injected) {
      ++stats_.corruption_events;
      VCD_OBS_INC(metrics_.corruption_events_total, 1);
      if (!resync_) {
        if (injected) return Status::Corruption("injected bitstream corruption");
        if (overrun) return Status::Corruption("frame payload overruns stream");
        return Status::Corruption("bad frame marker");
      }
      if (!ResyncFrom(pos_ + 1)) break;
      continue;
    }
    if (!intra) {
      // The cheap path: P-frames are skipped entirely via the length field.
      pos_ += 5 + len;
      ++frame_index_;
      ++stats_.p_frames_skipped;
      VCD_OBS_INC(metrics_.p_frames_skipped_total, 1);
      continue;
    }
    BitReader br(data_ + pos_ + 5, len);
    out->blocks_x = PadTo8(header_.width) / 8;
    out->blocks_y = PadTo8(header_.height) / 8;
    out->frame_index = frame_index_;
    out->timestamp = header_.fps > 0 ? static_cast<double>(frame_index_) / header_.fps : 0;
    out->degraded = false;
    out->dc.assign(static_cast<size_t>(out->blocks_x) * out->blocks_y, 0.0f);
    int32_t prev_dc = 0;
    Status entropy;
    for (size_t b = 0; b < out->dc.size(); ++b) {
      if (faultfx::ShouldFire(faultfx::Site::kDecodeError)) {
        entropy = Status::Corruption("injected decode error");
        break;
      }
      int32_t qdc = 0;
      if (const BlockError e = ReadBlockDcOnly(br, &prev_dc, &qdc);
          e != BlockError::kNone) [[unlikely]] {
        entropy = BlockStatus(e);
        break;
      }
      out->dc[b] = static_cast<float>(qdc) * kDcQuantStep;
    }
    if (!entropy.ok()) {
      ++stats_.corruption_events;
      VCD_OBS_INC(metrics_.corruption_events_total, 1);
      if (!resync_) return entropy;
      // Keep the DC prefix decoded so far (the rest stays zero) and flag
      // the frame so detection skips its basic window's sketch.
      out->degraded = true;
      ++stats_.degraded_frames;
      VCD_OBS_INC(metrics_.degraded_frames_total, 1);
    }
    // Chroma planes and the rest of the frame are skipped via the length.
    pos_ += 5 + len;
    ++frame_index_;
    ++stats_.key_frames;
    VCD_OBS_INC(metrics_.key_frames_total, 1);
    return Status::OK();
  }
  return Status::NotFound("end of stream");
}

Result<std::vector<DcFrame>> PartialDecoder::ExtractAll(const std::vector<uint8_t>& data) {
  PartialDecoder pd;
  VCD_RETURN_IF_ERROR(pd.Open(data.data(), data.size()));
  std::vector<DcFrame> out;
  for (;;) {
    DcFrame f;
    Status st = pd.NextKeyFrame(&f);
    if (st.code() == StatusCode::kNotFound) break;
    VCD_RETURN_IF_ERROR(st);
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace vcd::video
