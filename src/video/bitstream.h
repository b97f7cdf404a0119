#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/status.h"

/// \file bitstream.h
/// Bit-level serialization used by the codec's entropy layer.

namespace vcd::video {

/// \brief Appends bits MSB-first into a growing byte buffer.
class BitWriter {
 public:
  /// Writes the low \p nbits bits of \p value (1..32 bits), MSB first.
  void WriteBits(uint32_t value, int nbits);

  /// Writes an unsigned Exp-Golomb code (efficient for small magnitudes,
  /// the dominant case for quantized AC coefficients).
  void WriteUE(uint32_t value);

  /// Writes a signed Exp-Golomb code (zig-zag mapped).
  void WriteSE(int32_t value);

  /// Pads with zero bits to the next byte boundary.
  void AlignToByte();

  /// Finishes (byte-aligns) and returns the accumulated bytes.
  std::vector<uint8_t> Finish();

  /// Bits written so far.
  size_t bit_count() const { return bytes_.size() * 8 - (8 - used_) % 8; }

 private:
  std::vector<uint8_t> bytes_;
  int used_ = 8;  // bits used in the last byte; 8 means "no open byte"
};

/// \brief Reads bits MSB-first from a byte buffer, with bounds checking.
///
/// Every read peeks a 64-bit big-endian window at the cursor: one 8-byte
/// load while 8 bytes remain, else the last bytes one at a time with zero
/// padding, so no byte past the buffer is ever read. An Exp-Golomb code is
/// decoded by counting the window's leading zeros: one peek covers codes of
/// up to 57 bits, a second the longest legal (63-bit) ones.
///
/// The `Take*` primitives report failure as an `Error` and build no
/// `Status`; they are forced inline so that a caller holding the reader in
/// a local keeps the cursor in a register, as the block decoder in
/// codec_internal.h does. `Read*` are the same reads returning `Status`.
/// Either way a failed Exp-Golomb read reports, in this order: "bit stream
/// exhausted" when the bits run out before the code's first 1 bit (or
/// before its 32nd zero), "Exp-Golomb prefix too long" when 32 zeros are
/// read, and "bit stream exhausted" when the suffix is cut off.
class BitReader {
 public:
  /// Why a read failed; kOk on success.
  enum class Error : uint8_t { kOk, kExhausted, kPrefixTooLong };

  /// Creates a reader over \p data (not owned; must outlive the reader).
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads \p nbits bits (0..32; 0 reads the value 0). On kExhausted the
  /// cursor does not move.
  [[gnu::always_inline]] Error TakeBits(int nbits, uint32_t* value) {
    if (static_cast<size_t>(nbits) > bits_left()) return Error::kExhausted;
    *value = nbits == 0 ? 0 : static_cast<uint32_t>(Peek() >> (64 - nbits));
    bit_pos_ += static_cast<size_t>(nbits);
    return Error::kOk;
  }

  /// Reads an unsigned Exp-Golomb code. A failure leaves the cursor where
  /// a bit-at-a-time reader stops: at the end of the buffer for a
  /// truncated prefix, past 32 zeros for a prefix that is too long, and
  /// past the prefix's 1 bit for a truncated suffix.
  [[gnu::always_inline]] Error TakeUE(uint32_t* value) {
    const uint64_t window = Peek();
    const int zeros = std::countl_zero(window);
    const int len = 2 * zeros + 1;
    if (zeros <= 28 && static_cast<size_t>(len) <= bits_left()) [[likely]] {
      *value = static_cast<uint32_t>(window >> (64 - len)) - 1;
      bit_pos_ += static_cast<size_t>(len);
      return Error::kOk;
    }
    // Zero padding past the end reads as zeros, so a 1 bit in the window
    // is always a real one.
    if (zeros >= 32) {
      if (bits_left() < 32) {
        bit_pos_ = size_ * 8;
        return Error::kExhausted;
      }
      bit_pos_ += 32;
      return Error::kPrefixTooLong;
    }
    bit_pos_ += static_cast<size_t>(zeros) + 1;
    uint32_t rest = 0;
    if (TakeBits(zeros, &rest) != Error::kOk) return Error::kExhausted;
    *value = ((uint32_t{1} << zeros) | rest) - 1;
    return Error::kOk;
  }

  /// Reads a signed (zig-zag mapped) Exp-Golomb code.
  [[gnu::always_inline]] Error TakeSE(int32_t* value) {
    uint32_t mapped = 0;
    const Error error = TakeUE(&mapped);
    if (error != Error::kOk) [[unlikely]] return error;
    // 0, 1, 2, 3, 4 ... -> 0, 1, -1, 2, -2 ...
    const int32_t magnitude = static_cast<int32_t>((mapped + 1) >> 1);
    *value = (mapped & 1) != 0 ? magnitude : -magnitude;
    return Error::kOk;
  }

  /// The Corruption status that reports \p error (OK for kOk).
  static Status ToStatus(Error error);

  /// Reads \p nbits bits (0..32) into \p value. Fails with Corruption when
  /// the stream is exhausted.
  Status ReadBits(int nbits, uint32_t* value) { return Check(TakeBits(nbits, value)); }

  /// Reads an unsigned Exp-Golomb code.
  Status ReadUE(uint32_t* value) { return Check(TakeUE(value)); }

  /// Reads a signed Exp-Golomb code.
  Status ReadSE(int32_t* value) { return Check(TakeSE(value)); }

  /// Skips to the next byte boundary.
  void AlignToByte();

  /// Current bit position.
  size_t bit_pos() const { return bit_pos_; }
  /// True when all bits are consumed (up to byte padding).
  bool AtEnd() const { return bit_pos_ >= size_ * 8; }

  /// Moves the cursor to absolute bit position \p pos.
  Status SeekToBit(size_t pos);

 private:
  static Status Check(Error error) {
    return error == Error::kOk ? Status::OK() : ToStatus(error);
  }

  /// Bits between the cursor and the end of the buffer.
  size_t bits_left() const { return size_ * 8 - bit_pos_; }

  /// The 64 bits from the cursor on, MSB first; bits past the end are 0.
  [[gnu::always_inline]] uint64_t Peek() const {
    const size_t byte = bit_pos_ >> 3;
    uint64_t window = 0;
    if (size_ - byte >= 8) [[likely]] {
      std::memcpy(&window, data_ + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        window = __builtin_bswap64(window);
      }
    } else {
      for (size_t i = byte; i < size_; ++i) {
        window |= uint64_t{data_[i]} << (56 - 8 * (i - byte));
      }
    }
    return window << (bit_pos_ & 7);
  }

  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;  // never past size_ * 8
};

}  // namespace vcd::video
