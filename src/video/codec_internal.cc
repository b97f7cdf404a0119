#include "video/codec_internal.h"

namespace vcd::video::internal {

const int kZigZag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

const int kLumaQuant[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

const int kChromaQuant[64] = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

void WriteBlock(const std::array<int32_t, 64>& qcoef, int32_t* prev_dc, BitWriter* bw) {
  bw->WriteSE(qcoef[0] - *prev_dc);
  *prev_dc = qcoef[0];
  uint32_t run = 0;
  for (int k = 1; k < 64; ++k) {
    int32_t level = qcoef[kZigZag[k]];
    if (level == 0) {
      ++run;
    } else {
      bw->WriteUE(run);
      bw->WriteSE(level);
      run = 0;
    }
  }
  bw->WriteUE(kEob);
}

Status BlockStatus(BlockError error) {
  switch (error) {
    case BlockError::kNone:
      return Status::OK();
    case BlockError::kExhausted:
    case BlockError::kPrefixTooLong:
      return BitReader::ToStatus(static_cast<BitReader::Error>(error));
    case BlockError::kRunOverrun:
      return Status::Corruption("AC run overruns block");
    case BlockError::kZeroLevel:
      return Status::Corruption("zero AC level is not a legal code");
  }
  return Status::Internal("unknown block error");
}

Status ReadBlock(BitReader* br, int32_t* prev_dc, std::array<int32_t, 64>* qcoef) {
  qcoef->fill(0);
  return BlockStatus(DecodeBlock<true>(*br, prev_dc, qcoef->data()));
}

}  // namespace vcd::video::internal
