#include "video/bitstream.h"

#include <bit>

namespace vcd::video {

void BitWriter::WriteBits(uint32_t value, int nbits) {
  for (int i = nbits - 1; i >= 0; --i) {
    if (used_ == 8) {
      bytes_.push_back(0);
      used_ = 0;
    }
    uint8_t bit = (value >> i) & 1;
    bytes_.back() |= static_cast<uint8_t>(bit << (7 - used_));
    ++used_;
  }
}

void BitWriter::WriteUE(uint32_t value) {
  // Exp-Golomb: code (value+1) with leading zeros equal to its bit length - 1.
  uint32_t v = value + 1;
  int len = 32 - std::countl_zero(v);
  for (int i = 0; i < len - 1; ++i) WriteBits(0, 1);
  WriteBits(v, len);
}

void BitWriter::WriteSE(int32_t value) {
  // Zig-zag map: 0,-1,1,-2,2... -> 0,1,2,3,4...
  uint32_t mapped =
      value <= 0 ? static_cast<uint32_t>(-2LL * value) : static_cast<uint32_t>(2LL * value - 1);
  WriteUE(mapped);
}

void BitWriter::AlignToByte() { used_ = 8; }

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

Status BitReader::ToStatus(Error error) {
  switch (error) {
    case Error::kOk:
      return Status::OK();
    case Error::kExhausted:
      return Status::Corruption("bit stream exhausted");
    case Error::kPrefixTooLong:
      return Status::Corruption("Exp-Golomb prefix too long");
  }
  return Status::Internal("unknown bit reader error");
}

void BitReader::AlignToByte() { bit_pos_ = (bit_pos_ + 7) & ~size_t{7}; }

Status BitReader::SeekToBit(size_t pos) {
  if (pos > size_ * 8) return Status::OutOfRange("seek past end of bit stream");
  bit_pos_ = pos;
  return Status::OK();
}

}  // namespace vcd::video
