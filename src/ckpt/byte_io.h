#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

/// \file byte_io.h
/// Bounds-checked little-endian byte stream primitives for the snapshot
/// codec (docs/FORMATS.md). The writer appends into a growable buffer; the
/// reader walks a read-only span and latches a failure flag on the first
/// out-of-bounds access instead of reading past the end — every decode loop
/// checks `ok()` (or the reader's Status) once at the end rather than after
/// every field, which keeps the codecs linear and impossible to overrun.

namespace vcd::ckpt {

/// \brief Append-only little-endian encoder.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  /// IEEE-754 bit pattern, little-endian — bit-exact round trip (NaN
  /// payloads and signed zeros included), which the restore-equivalence
  /// guarantee depends on.
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed string: u32 byte count + raw bytes.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked little-endian decoder over a read-only span.
///
/// Reads past the end return zero values and latch `ok() == false`; no read
/// ever touches memory outside [data, data+size). Decoders call Finish()
/// once after the last field.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), n_(size) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return p_[off_++];
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[off_ + static_cast<size_t>(i)]) << (8 * i);
    off_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[off_ + static_cast<size_t>(i)]) << (8 * i);
    off_ += 8;
    return v;
  }

  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool Bytes(void* out, size_t n) {
    if (!Need(n)) return false;
    if (n == 0) return true;  // out may be null (an empty vector's data())
    std::memcpy(out, p_ + off_, n);
    off_ += n;
    return true;
  }

  /// Reads a u32-length-prefixed string. The length is validated against
  /// the remaining span *before* any allocation, so a corrupt length field
  /// cannot trigger a multi-gigabyte reserve.
  bool Str(std::string* out) {
    const uint32_t len = U32();
    if (!Need(len)) return false;
    out->assign(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return true;
  }

  /// True until the first out-of-bounds read.
  bool ok() const { return !failed_; }
  size_t remaining() const { return n_ - off_; }

  /// Corruption unless every read stayed in bounds AND the span was fully
  /// consumed — trailing garbage is as suspect as truncation.
  Status Finish(const char* what) const {
    if (failed_) {
      return Status::Corruption(std::string(what) + ": truncated payload");
    }
    if (off_ != n_) {
      return Status::Corruption(std::string(what) + ": " +
                                std::to_string(n_ - off_) +
                                " trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  bool Need(size_t n) {
    if (failed_ || n > n_ - off_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  size_t n_;
  size_t off_ = 0;
  bool failed_ = false;
};

}  // namespace vcd::ckpt
