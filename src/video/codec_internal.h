#pragma once

#include <array>
#include <cstdint>

#include "util/status.h"
#include "video/bitstream.h"

/// \file codec_internal.h
/// Tables and block-level entropy primitives shared by the full decoder and
/// the partial (DC-only) decoder. Not part of the public API.

namespace vcd::video::internal {

/// Zig-zag scan order mapping scan position -> row-major coefficient index.
extern const int kZigZag[64];

/// JPEG-style luma base quantization matrix (row-major).
extern const int kLumaQuant[64];

/// JPEG-style chroma base quantization matrix (row-major).
extern const int kChromaQuant[64];

/// Fixed quantization step for DC coefficients (MPEG-1 intra DC style).
inline constexpr int kDcQuantStep = 8;

/// Effective AC quantization step for coefficient \p idx at quantizer scale
/// \p qscale. Never below 1.
inline float AcStep(const int* qmat, int idx, int qscale) {
  float s = static_cast<float>(qmat[idx]) * static_cast<float>(qscale) / 16.0f;
  return s < 1.0f ? 1.0f : s;
}

/// End-of-block sentinel; legal zero-runs within a block are at most 62.
inline constexpr uint32_t kEob = 63;

/// Writes one quantized block: DPCM DC then (run, level) AC pairs with the
/// end-of-block sentinel (run == 63).
void WriteBlock(const std::array<int32_t, 64>& qcoef, int32_t* prev_dc, BitWriter* bw);

/// Why a block decode stopped early; kNone on success. The reader's errors
/// keep their BitReader::Error values.
enum class BlockError : uint8_t {
  kNone,
  kExhausted,
  kPrefixTooLong,
  kRunOverrun,
  kZeroLevel,
};
static_assert(static_cast<int>(BlockError::kExhausted) ==
                  static_cast<int>(BitReader::Error::kExhausted) &&
              static_cast<int>(BlockError::kPrefixTooLong) ==
                  static_cast<int>(BitReader::Error::kPrefixTooLong));

/// The Corruption status that reports \p error (OK for kNone).
Status BlockStatus(BlockError error);

/// Decodes one block written by WriteBlock through the Status-free reader
/// primitives; a caller that holds \p r in a local keeps the cursor in a
/// register (the partial decoder does). With kKeepAc the AC levels go to
/// \p coef in row-major order; without, they are checked and dropped and
/// only coef[0] is written.
template <bool kKeepAc>
inline BlockError DecodeBlock(BitReader& r, int32_t* prev_dc, int32_t* coef) {
  using Error = BitReader::Error;
  int32_t diff = 0;
  if (const Error e = r.TakeSE(&diff); e != Error::kOk) {
    return static_cast<BlockError>(e);
  }
  // DPCM accumulates modulo 2^32 (hostile diffs may overflow an int32).
  *prev_dc = static_cast<int32_t>(static_cast<uint32_t>(*prev_dc) +
                                  static_cast<uint32_t>(diff));
  coef[0] = *prev_dc;
  uint32_t k = 1;  // next zig-zag position, at most 64
  for (;;) {
    uint32_t run = 0;
    if (const Error e = r.TakeUE(&run); e != Error::kOk) {
      return static_cast<BlockError>(e);
    }
    if (run == kEob) return BlockError::kNone;
    if (run >= 64 - k) return BlockError::kRunOverrun;
    k += run;
    int32_t level = 0;
    if (const Error e = r.TakeSE(&level); e != Error::kOk) {
      return static_cast<BlockError>(e);
    }
    if (level == 0) return BlockError::kZeroLevel;
    if constexpr (kKeepAc) coef[kZigZag[k]] = level;
    ++k;
  }
}

/// Reads one quantized block written by WriteBlock.
Status ReadBlock(BitReader* br, int32_t* prev_dc, std::array<int32_t, 64>* qcoef);

/// Reads only the DC of one block, skimming over the AC (run, level) pairs
/// without storing them but checking every code — the partial-decoding
/// fast path. Status-free: turn a failure into a Status with BlockStatus.
inline BlockError ReadBlockDcOnly(BitReader& r, int32_t* prev_dc, int32_t* dc) {
  return DecodeBlock<false>(r, prev_dc, dc);
}

/// Rounds \p v up to the next multiple of 8 (plane padding for block coding).
inline int PadTo8(int v) { return (v + 7) & ~7; }

}  // namespace vcd::video::internal
