#pragma once

#include <cmath>

#include "sketch/minhash.h"
#include "util/bit_util.h"
#include "util/status.h"

/// \file bit_signature.h
/// The bit-vector signature of a candidate sketch against a query sketch
/// (paper §V-A, Definition 3).
///
/// For each hash function r the pair of bits (even = 2r, odd = 2r+1) encodes
/// the order relation between the candidate's and the query's r-th min-hash
/// value:
///     ">"  -> (0, 0)      "="  -> (1, 0)      "<"  -> (1, 1)
/// i.e. the even bit means `cand ≤ query` and the odd bit means
/// `cand < query`. Because combining candidates takes element-wise minima,
/// the relation of the combined value follows by bitwise OR of the pairs —
/// the lossless-merge table the paper lists below Definition 3. Lemma 1's
/// similarity and Lemma 2's pruning bound become two masked popcounts.

namespace vcd::sketch {

/// \brief A 2K-bit signature of one candidate sequence w.r.t. one query.
class BitSignature {
 public:
  BitSignature() = default;

  /// Creates the all-">" signature (the empty candidate is larger than any
  /// query value at every position).
  explicit BitSignature(int k) : k_(k), bits_(static_cast<size_t>(2 * k)) {}

  /// Builds the signature of \p cand against \p query (equal K required).
  static BitSignature FromSketches(const Sketch& cand, const Sketch& query);

  /// Builds a signature from \p nwords raw backing words (bit-faithful,
  /// including any invalid states, so Validate() can vet the source). Used
  /// to materialize SignaturePool slots on the scalar reference path.
  static BitSignature FromRawWords(int k, const uint64_t* words, size_t nwords);

  /// Number of hash functions K.
  int K() const { return k_; }

  /// Sets the relation at hash position \p r from raw values.
  void SetRelation(int r, uint64_t cand_value, uint64_t query_value) {
    if (cand_value <= query_value) bits_.Set(static_cast<size_t>(2 * r));
    if (cand_value < query_value) bits_.Set(static_cast<size_t>(2 * r + 1));
  }

  /// True if position \p r encodes "=".
  bool IsEqualAt(int r) const {
    return bits_.Get(static_cast<size_t>(2 * r)) &&
           !bits_.Get(static_cast<size_t>(2 * r + 1));
  }

  /// OR-combination (the signature of the combined candidate; §V-A).
  void OrWith(const BitSignature& other) { bits_.OrWith(other.bits_); }

  /// Number of "=" positions: popcount(even) − popcount(odd).
  int NumEqual() const {
    return bits_.CountOnesWithParity(0) - bits_.CountOnesWithParity(1);
  }

  /// Number of "<" positions (the `N_s` of Lemma 2).
  int NumLess() const { return bits_.CountOnesWithParity(1); }

  /// Lemma 1: similarity = 1 − (n0 + n1)/K = NumEqual()/K.
  double Similarity() const {
    return k_ > 0 ? static_cast<double>(NumEqual()) / k_ : 0.0;
  }

  /// Lemma 2: a candidate can still reach threshold \p delta only while the
  /// number of "<" positions is at most K(1−δ).
  bool SatisfiesLemma2(double delta) const {
    return static_cast<double>(NumLess()) <= static_cast<double>(k_) * (1.0 - delta) + 1e-9;
  }

  /// Lemma 2's bound as one integer, ⌊K(1−δ)+1e-9⌋: a signature of \p k
  /// hash functions satisfies Lemma 2 at \p delta iff NumLess() is at most
  /// this. The detector computes it once and compares integers wherever
  /// signature bits change.
  static int Lemma2MaxLess(int k, double delta) {
    return static_cast<int>(std::floor(static_cast<double>(k) * (1.0 - delta) + 1e-9));
  }

  /// \brief Structural invariant check (debug validator).
  ///
  /// A well-formed signature has exactly 2K bits and no position in the
  /// impossible (even=0, odd=1) state — "cand < query but not cand ≤ query".
  /// That state is unreachable through SetRelation/OrWith; seeing it means
  /// memory corruption or a bad merge. The popcount bounds of Lemma 1/2
  /// (odd ≤ even ≤ K, hence NumEqual ∈ [0, K]) follow from per-position
  /// validity and are re-checked directly as a defence in depth.
  Status Validate() const {
    if (bits_.size() != static_cast<size_t>(2 * k_)) {
      return Status::Internal("BitSignature: bit count != 2K");
    }
    for (int r = 0; r < k_; ++r) {
      if (!bits_.Get(static_cast<size_t>(2 * r)) &&
          bits_.Get(static_cast<size_t>(2 * r + 1))) {
        return Status::Internal("BitSignature: impossible (0,1) relation pair");
      }
    }
    const int even = bits_.CountOnesWithParity(0);
    const int odd = bits_.CountOnesWithParity(1);
    if (odd > even || even > k_) {
      return Status::Internal("BitSignature: popcount bounds violated");
    }
    return Status::OK();
  }

  /// Raw bits (for tests).
  const BitVector& bits() const { return bits_; }

  /// Mutable raw bits — exists only so tests can corrupt a signature and
  /// assert that Validate() reports it. Library code must not call this.
  BitVector& mutable_bits_for_test() { return bits_; }

  bool operator==(const BitSignature& other) const {
    return k_ == other.k_ && bits_ == other.bits_;
  }

 private:
  int k_ = 0;
  BitVector bits_;
};

}  // namespace vcd::sketch
