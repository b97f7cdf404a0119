#include "video/bitstream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace vcd::video {
namespace {

/// The bit-at-a-time reader the word-at-a-time BitReader replaced, kept
/// as the reference its values, cursors and errors must match.
class ReferenceReader {
 public:
  ReferenceReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status ReadBits(int nbits, uint32_t* value) {
    if (bit_pos_ + static_cast<size_t>(nbits) > size_ * 8) {
      return Status::Corruption("bit stream exhausted");
    }
    uint32_t v = 0;
    for (int i = 0; i < nbits; ++i) {
      v = (v << 1) | ((data_[bit_pos_ >> 3] >> (7 - (bit_pos_ & 7))) & 1);
      ++bit_pos_;
    }
    *value = v;
    return Status::OK();
  }

  Status ReadUE(uint32_t* value) {
    int zeros = 0;
    uint32_t bit = 0;
    for (;;) {
      VCD_RETURN_IF_ERROR(ReadBits(1, &bit));
      if (bit == 1) break;
      if (++zeros > 31) return Status::Corruption("Exp-Golomb prefix too long");
    }
    uint32_t rest = 0;
    if (zeros > 0) VCD_RETURN_IF_ERROR(ReadBits(zeros, &rest));
    *value = ((uint32_t{1} << zeros) | rest) - 1;
    return Status::OK();
  }

  Status ReadSE(int32_t* value) {
    uint32_t mapped = 0;
    VCD_RETURN_IF_ERROR(ReadUE(&mapped));
    *value = mapped % 2 == 0 ? -static_cast<int32_t>(mapped / 2)
                             : static_cast<int32_t>((mapped + 1) / 2);
    return Status::OK();
  }

  void AlignToByte() { bit_pos_ = (bit_pos_ + 7) & ~size_t{7}; }
  void SeekToBit(size_t pos) { bit_pos_ = pos; }
  size_t bit_pos() const { return bit_pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t bit_pos_ = 0;
};

/// The bits of the unsigned Exp-Golomb code of \p value, MSB first.
std::vector<int> UeBits(uint32_t value) {
  const uint64_t v = uint64_t{value} + 1;
  const int len = 64 - std::countl_zero(v);
  std::vector<int> bits(static_cast<size_t>(len - 1), 0);
  for (int i = len - 1; i >= 0; --i) bits.push_back(static_cast<int>((v >> i) & 1));
  return bits;
}

void WriteBitVector(BitWriter* w, const std::vector<int>& bits) {
  for (int b : bits) w->WriteBits(static_cast<uint32_t>(b), 1);
}

/// Writes \p n random bits.
void WriteRandomBits(BitWriter* w, Rng* rng, size_t n) {
  for (; n > 0; n -= std::min<size_t>(n, 32)) {
    const int chunk = static_cast<int>(std::min<size_t>(n, 32));
    w->WriteBits(static_cast<uint32_t>(rng->Next()), chunk);
  }
}

/// Expects \p st to be the Corruption status with \p message.
void ExpectCorruption(const Status& st, const char* message) {
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(st.message(), message);
}

TEST(BitWriterTest, SingleBits) {
  BitWriter w;
  w.WriteBits(1, 1);
  w.WriteBits(0, 1);
  w.WriteBits(1, 1);
  auto bytes = w.Finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitWriterTest, MultiByteValue) {
  BitWriter w;
  w.WriteBits(0xABCD, 16);
  auto bytes = w.Finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
}

TEST(BitRoundTripTest, RawBits) {
  Rng rng(3);
  BitWriter w;
  std::vector<std::pair<uint32_t, int>> vals;
  for (int i = 0; i < 500; ++i) {
    int n = 1 + static_cast<int>(rng.Uniform(32));
    uint32_t v = static_cast<uint32_t>(rng.Next());
    if (n < 32) v &= (uint32_t{1} << n) - 1;
    vals.emplace_back(v, n);
    w.WriteBits(v, n);
  }
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (auto [v, n] : vals) {
    uint32_t got = 0;
    ASSERT_TRUE(r.ReadBits(n, &got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(ExpGolombTest, KnownCodes) {
  // UE(0) = "1" (1 bit), UE(1) = "010", UE(2) = "011", UE(3) = "00100".
  BitWriter w;
  w.WriteUE(0);
  auto b0 = w.Finish();
  EXPECT_EQ(b0[0] >> 7, 1);

  BitWriter w1;
  w1.WriteUE(1);
  auto b1 = w1.Finish();
  EXPECT_EQ(b1[0] >> 5, 0b010);
}

TEST(ExpGolombTest, UnsignedRoundTrip) {
  Rng rng(5);
  BitWriter w;
  std::vector<uint32_t> vals;
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = static_cast<uint32_t>(rng.Uniform(1 << 20));
    vals.push_back(v);
    w.WriteUE(v);
  }
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (uint32_t v : vals) {
    uint32_t got = 0;
    ASSERT_TRUE(r.ReadUE(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(ExpGolombTest, SignedRoundTrip) {
  Rng rng(7);
  BitWriter w;
  std::vector<int32_t> vals;
  for (int i = 0; i < 1000; ++i) {
    int32_t v = static_cast<int32_t>(rng.UniformInt(-100000, 100000));
    vals.push_back(v);
    w.WriteSE(v);
  }
  // Include boundary values.
  for (int32_t v : {0, 1, -1, 2, -2}) {
    vals.push_back(v);
    w.WriteSE(v);
  }
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  for (int32_t v : vals) {
    int32_t got = 0;
    ASSERT_TRUE(r.ReadSE(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BitReaderTest, ExhaustionIsCorruption) {
  BitWriter w;
  w.WriteBits(0xFF, 8);
  auto bytes = w.Finish();
  BitReader r(bytes.data(), bytes.size());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(8, &v).ok());
  EXPECT_EQ(r.ReadBits(1, &v).code(), StatusCode::kCorruption);
}

TEST(BitReaderTest, EmptyStream) {
  BitReader r(nullptr, 0);
  uint32_t v;
  EXPECT_EQ(r.ReadBits(1, &v).code(), StatusCode::kCorruption);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BitReaderTest, MalformedExpGolombPrefix) {
  // 5 zero bytes: 40 leading zeros exceed the 31-zero legal prefix.
  std::vector<uint8_t> bytes(5, 0);
  BitReader r(bytes.data(), bytes.size());
  uint32_t v;
  EXPECT_EQ(r.ReadUE(&v).code(), StatusCode::kCorruption);
}

TEST(BitReaderTest, AlignAndSeek) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.AlignToByte();
  w.WriteBits(0xEE, 8);
  auto bytes = w.Finish();
  ASSERT_EQ(bytes.size(), 2u);
  BitReader r(bytes.data(), bytes.size());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v).ok());
  r.AlignToByte();
  ASSERT_TRUE(r.ReadBits(8, &v).ok());
  EXPECT_EQ(v, 0xEEu);
  ASSERT_TRUE(r.SeekToBit(0).ok());
  ASSERT_TRUE(r.ReadBits(3, &v).ok());
  EXPECT_EQ(v, 0b101u);
  EXPECT_EQ(r.SeekToBit(1000).code(), StatusCode::kOutOfRange);
}

TEST(BitWriterTest, FinishIsByteAligned) {
  BitWriter w;
  w.WriteBits(1, 1);
  auto bytes = w.Finish();
  EXPECT_EQ(bytes.size(), 1u);
}

TEST(ExpGolombTest, LongestLegalCodeAtEveryOffset) {
  // 31 zeros, then the 32-bit value + 1: the 63-bit code of 4294967294.
  Rng rng(11);
  for (int offset = 0; offset < 8; ++offset) {
    BitWriter w;
    WriteRandomBits(&w, &rng, static_cast<size_t>(offset));
    w.WriteUE(4294967294u);
    const auto bytes = w.Finish();
    BitReader r(bytes.data(), bytes.size());
    uint32_t skip = 0;
    ASSERT_TRUE(r.ReadBits(offset, &skip).ok());
    uint32_t v = 0;
    ASSERT_TRUE(r.ReadUE(&v).ok()) << "offset " << offset;
    EXPECT_EQ(v, 4294967294u);
    EXPECT_EQ(r.bit_pos(), static_cast<size_t>(offset) + 63);
    ASSERT_TRUE(r.SeekToBit(static_cast<size_t>(offset)).ok());
    int32_t sv = 0;
    ASSERT_TRUE(r.ReadSE(&sv).ok());
    EXPECT_EQ(sv, -2147483647);
  }
}

TEST(BitReaderTest, ThirtyTwoZerosIsPrefixTooLong) {
  // 32 zeros with at least 32 bits left, at every offset; the cursor ends
  // past the 32nd zero.
  for (int offset = 0; offset < 8; ++offset) {
    for (int trailing : {0, 1, 40}) {
      BitWriter w;
      w.WriteBits(0x7F, offset);
      w.WriteBits(0, 16);
      w.WriteBits(0, 16);
      for (int i = 0; i < trailing; ++i) w.WriteBits(i % 3 == 0, 1);
      w.WriteBits(0xFF, (8 - (offset + trailing) % 8) % 8);
      const auto bytes = w.Finish();
      BitReader r(bytes.data(), bytes.size());
      uint32_t v = 0;
      ASSERT_TRUE(r.ReadBits(offset, &v).ok());
      ExpectCorruption(r.ReadUE(&v), "Exp-Golomb prefix too long");
      EXPECT_EQ(r.bit_pos(), static_cast<size_t>(offset) + 32);
    }
  }
  // Exactly 32 bits, all zero.
  const std::vector<uint8_t> zeros(4, 0);
  BitReader r(zeros.data(), zeros.size());
  int32_t sv = 0;
  ExpectCorruption(r.ReadSE(&sv), "Exp-Golomb prefix too long");
  EXPECT_EQ(r.bit_pos(), 32u);
}

TEST(BitReaderTest, ThirtyOneZerosThenEndIsExhausted) {
  // One 1 bit, then 31 zeros up to the end of the buffer.
  const std::vector<uint8_t> bytes = {0x80, 0x00, 0x00, 0x00};
  BitReader r(bytes.data(), bytes.size());
  uint32_t v = 0;
  ASSERT_TRUE(r.ReadBits(1, &v).ok());
  ExpectCorruption(r.ReadUE(&v), "bit stream exhausted");
  EXPECT_EQ(r.bit_pos(), 32u);
  EXPECT_TRUE(r.AtEnd());

  // 31 zeros and the 1 bit, but no suffix: the cursor stops after the 1.
  const std::vector<uint8_t> cut = {0x00, 0x00, 0x00, 0x01};
  BitReader r2(cut.data(), cut.size());
  ExpectCorruption(r2.ReadUE(&v), "bit stream exhausted");
  EXPECT_EQ(r2.bit_pos(), 32u);
}

TEST(BitReaderTest, ZeroAndFullWidthReadsAtEveryOffset) {
  Rng rng(12);
  for (int offset = 0; offset < 8; ++offset) {
    const uint32_t value = static_cast<uint32_t>(rng.Next());
    BitWriter w;
    WriteRandomBits(&w, &rng, static_cast<size_t>(offset));
    w.WriteBits(value, 32);
    const auto bytes = w.Finish();
    BitReader r(bytes.data(), bytes.size());
    uint32_t v = 0xDEAD;
    ASSERT_TRUE(r.ReadBits(offset, &v).ok());
    v = 0xDEAD;
    ASSERT_TRUE(r.ReadBits(0, &v).ok());
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(r.bit_pos(), static_cast<size_t>(offset));
    ASSERT_TRUE(r.ReadBits(32, &v).ok());
    EXPECT_EQ(v, value) << "offset " << offset;
    EXPECT_EQ(r.bit_pos(), static_cast<size_t>(offset) + 32);
    // Only padding remains: a 0-bit read still succeeds, a 32-bit one not.
    ASSERT_TRUE(r.ReadBits(0, &v).ok());
    EXPECT_EQ(v, 0u);
    const size_t before = r.bit_pos();
    ExpectCorruption(r.ReadBits(32, &v), "bit stream exhausted");
    EXPECT_EQ(r.bit_pos(), before);
  }
}

TEST(BitReaderTest, ReadsEndingAtTheLastBitAndOnePast) {
  Rng rng(13);
  for (size_t len = 0; len <= 16; ++len) {
    // Each buffer is its own exact-size allocation, so a read past the end
    // is a heap overflow under ASan.
    std::vector<uint8_t> bytes(len);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
    const size_t total = len * 8;
    for (size_t start = 0; start <= total; ++start) {
      BitReader r(bytes.data(), bytes.size());
      ReferenceReader ref(bytes.data(), bytes.size());
      uint32_t v = 0, want = 0;
      ASSERT_TRUE(r.SeekToBit(start).ok());
      ref.SeekToBit(start);
      if (total - start < 32) {
        ExpectCorruption(r.ReadBits(static_cast<int>(total - start) + 1, &v),
                         "bit stream exhausted");
        EXPECT_EQ(r.bit_pos(), start);
      }
      while (r.bit_pos() < total) {
        const int n = static_cast<int>(std::min<size_t>(total - r.bit_pos(), 32));
        ASSERT_TRUE(r.ReadBits(n, &v).ok());
        ASSERT_TRUE(ref.ReadBits(n, &want).ok());
        EXPECT_EQ(v, want) << "len " << len << " start " << start;
      }
      EXPECT_EQ(r.bit_pos(), total);
      EXPECT_TRUE(r.AtEnd());
      ASSERT_TRUE(r.ReadBits(0, &v).ok());
      ExpectCorruption(r.ReadBits(1, &v), "bit stream exhausted");
      ExpectCorruption(r.ReadUE(&v), "bit stream exhausted");
      EXPECT_EQ(r.bit_pos(), total);
    }
    // Exp-Golomb codes of every legal prefix length that fits: once ending
    // exactly at the last bit, once one bit short of their end.
    for (int zeros = 0; zeros <= 31 && static_cast<size_t>(2 * zeros) < total; ++zeros) {
      const uint32_t value = static_cast<uint32_t>(
          (uint64_t{1} << zeros) - 1 + (rng.Next() & ((uint64_t{1} << zeros) - 1)));
      std::vector<int> code = UeBits(value);
      ASSERT_EQ(code.size(), static_cast<size_t>(2 * zeros + 1));
      for (bool whole : {true, false}) {
        if (!whole) code.pop_back();
        BitWriter w;
        WriteRandomBits(&w, &rng, total - code.size());
        WriteBitVector(&w, code);
        const std::vector<uint8_t> buf = w.Finish();
        ASSERT_EQ(buf.size(), len);
        BitReader r(buf.data(), buf.size());
        ReferenceReader ref(buf.data(), buf.size());
        ASSERT_TRUE(r.SeekToBit(total - code.size()).ok());
        ref.SeekToBit(total - code.size());
        uint32_t v = 0, want = 0;
        const Status st = r.ReadUE(&v);
        const Status ref_st = ref.ReadUE(&want);
        if (whole) {
          ASSERT_TRUE(st.ok()) << st.ToString() << " len " << len << " zeros "
                               << zeros;
          EXPECT_EQ(v, value);
          EXPECT_EQ(r.bit_pos(), total);
        } else {
          ExpectCorruption(st, "bit stream exhausted");
          EXPECT_EQ(ref_st.message(), st.message());
          EXPECT_EQ(r.bit_pos(), ref.bit_pos()) << "len " << len << " zeros " << zeros;
        }
      }
    }
  }
}

TEST(BitReaderTest, MatchesBitAtATimeReference) {
  // Random mixes of ReadBits/ReadUE/ReadSE over random streams built from
  // Exp-Golomb codes of every prefix length (29-31 zeros included), raw
  // bits and zero runs, truncated at a random point. Half the trials read
  // the items back in the order written, half with random reads. Every
  // success must return the reference's value and cursor; the first
  // failure its code, message and cursor.
  Rng rng(14);
  int failures = 0, long_codes = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    enum Kind { kBits, kUE, kSE };
    std::vector<std::pair<Kind, int>> items;
    BitWriter w;
    const int n_items = 1 + static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < n_items; ++i) {
      const uint64_t pick = rng.Uniform(10);
      if (pick < 4) {
        const int zeros = static_cast<int>(rng.Uniform(32));
        w.WriteUE(static_cast<uint32_t>((uint64_t{1} << zeros) - 1 +
                                        (rng.Next() & ((uint64_t{1} << zeros) - 1))));
        items.emplace_back(kUE, 0);
      } else if (pick < 6) {
        w.WriteSE(static_cast<int32_t>(rng.UniformInt(-70000, 70000)));
        items.emplace_back(kSE, 0);
      } else if (pick < 8) {
        const int n = static_cast<int>(rng.Uniform(33));
        w.WriteBits(static_cast<uint32_t>(rng.Next()), n);
        items.emplace_back(kBits, n);
      } else {
        const int n = 1 + static_cast<int>(rng.Uniform(40));
        for (int z = 0; z < n; ++z) w.WriteBits(0, 1);
        items.emplace_back(kBits, std::min(n, 32));
      }
    }
    std::vector<uint8_t> full = w.Finish();
    // An exact-size copy up to the truncation point.
    const std::vector<uint8_t> bytes(full.begin(),
                                     full.begin() + static_cast<std::ptrdiff_t>(
                                                        rng.Uniform(full.size() + 1)));
    BitReader r(bytes.data(), bytes.size());
    ReferenceReader ref(bytes.data(), bytes.size());
    const bool aligned = trial % 2 == 0;
    for (size_t op = 0; op < 200; ++op) {
      Kind kind;
      int nbits = 0;
      if (aligned) {
        if (op >= items.size()) break;
        kind = items[op].first;
        nbits = items[op].second;
      } else {
        kind = static_cast<Kind>(rng.Uniform(3));
        nbits = static_cast<int>(rng.Uniform(33));
        if (rng.Uniform(20) == 0) {
          r.AlignToByte();
          ref.AlignToByte();
        }
      }
      Status got, want;
      uint64_t got_v = 0, want_v = 0;
      if (kind == kBits) {
        uint32_t a = 0, b = 0;
        got = r.ReadBits(nbits, &a);
        want = ref.ReadBits(nbits, &b);
        got_v = a, want_v = b;
      } else if (kind == kUE) {
        uint32_t a = 0, b = 0;
        got = r.ReadUE(&a);
        want = ref.ReadUE(&b);
        got_v = a, want_v = b;
        long_codes += got.ok() && a >= (1u << 29) - 1;
      } else {
        int32_t a = 0, b = 0;
        got = r.ReadSE(&a);
        want = ref.ReadSE(&b);
        got_v = static_cast<uint32_t>(a), want_v = static_cast<uint32_t>(b);
      }
      ASSERT_EQ(got.code(), want.code()) << "trial " << trial << " op " << op;
      ASSERT_EQ(got.message(), want.message()) << "trial " << trial << " op " << op;
      ASSERT_EQ(r.bit_pos(), ref.bit_pos()) << "trial " << trial << " op " << op;
      if (!got.ok()) {
        ++failures;
        break;
      }
      ASSERT_EQ(got_v, want_v) << "trial " << trial << " op " << op;
    }
  }
  // The mix reaches both the failure paths and the two-peek codes.
  EXPECT_GT(failures, 1000);
  EXPECT_GT(long_codes, 100);
}

}  // namespace
}  // namespace vcd::video
