#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file combiner.h
/// The candidate list of both combination orders of paper §IV-A (Fig. 2).
///
/// Candidates grow by absorbing each newly completed basic window.
/// *Sequential order* keeps every suffix of the recent stream of length
/// 1..⌈λL/w⌉ windows, at the cost of ⌈λL/w⌉ combinations per arriving
/// window. *Geometric order* keeps only the suffixes that end on a block
/// boundary of a binary counter over the combined windows: after n windows,
/// the sums of its power-of-two blocks from the newest one back (Fig. 2's
/// "combine with 4, then 3, then 1"), at most ⌊log₂⌈λL/w⌉⌋ + 1 of them, so
/// fewer candidate lengths are materialized, which trades recall for speed
/// exactly as the paper describes. Both orders run on one list: Geometric
/// order is the Sequential list trimmed to those lengths (IsCounterBoundary).
///
/// The candidate payload type `C` must expose an `int num_windows` member;
/// merging of payloads (sketch element-wise min, or bit-signature OR) is
/// supplied by the caller.
///
/// ### Recycling
/// The list works in place, for payloads that hold arena handles (see
/// sketch/signature_pool.h) and reuse buffer capacity:
/// `Step(max_windows, keep, init, merge, retire)` builds the fresh
/// candidate inside a recycled shell (`init(C&)` must fully overwrite it),
/// and every candidate the list drops is passed to `retire(C&)` — which
/// must release external resources such as pool handles — before its shell
/// is parked for reuse. Shells keep their vector capacities, so the
/// steady-state window cycle performs no heap allocation.

namespace vcd::stream {

/// \brief Geometric order's rule: true when a suffix of \p length windows
/// ends on a block boundary of the binary counter that has counted \p n
/// windows, i.e. when \p length is `n mod 2^b` with `b = bit_width(length)`,
/// the sum of the counter's blocks up to the one of length's top bit.
///
/// The rule holds no state. While the λL bound stays put, it keeps the
/// suffixes a carry-and-drop ladder of power-of-two blocks would test. After
/// the bound drops and rises again, such a ladder could join blocks across
/// the windows of a carry it dropped; this rule never does (DESIGN.md §6).
inline bool IsCounterBoundary(int64_t n, int length) {
  if (length < 1) return false;
  const auto len = static_cast<uint64_t>(length);
  const uint64_t mask = (uint64_t{1} << std::bit_width(len)) - 1;
  return (static_cast<uint64_t>(n) & mask) == len;
}

/// \brief The candidate list of both orders: suffixes of the recent
/// windows, every one in Sequential order, the counter's block boundaries
/// in Geometric order (the `keep` rule of Step).
///
/// Candidates are kept oldest-first; window counts decrease from front to
/// back, so expiry is a pop-front loop. Storage is a flat vector with a
/// head index (compacted amortized-O(1)), never a per-node allocation.
template <typename C>
class SequentialCandidates {
 public:
  /// Number of live candidates.
  size_t size() const { return buf_.size() - head_; }
  /// True when no candidate is live.
  bool empty() const { return size() == 0; }
  /// Live candidate \p i, oldest (longest) first.
  C& at(size_t i) { return buf_[head_ + i]; }
  /// \copydoc at
  const C& at(size_t i) const { return buf_[head_ + i]; }

  /// Calls \p fn on every live candidate, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = head_; i < buf_.size(); ++i) fn(buf_[i]);
  }
  /// \copydoc ForEach
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = head_; i < buf_.size(); ++i) fn(buf_[i]);
  }

  /// Calls \p fn on every live candidate, newest (shortest) first.
  template <typename Fn>
  void ForEachNewestFirst(Fn&& fn) {
    for (size_t i = buf_.size(); i > head_; --i) fn(buf_[i - 1]);
  }

  /// Absorbs a fresh single-window candidate: `init(C&)` fills a recycled
  /// shell with it (it must overwrite every field). Oldest first, each live
  /// candidate is dropped unless `keep(length)` holds for the length it
  /// would grow to, and otherwise absorbs the fresh one through
  /// `merge(into, fresh)`, which must also advance `into.num_windows`. The
  /// fresh candidate is appended if `keep` holds for its own length, and
  /// candidates that now exceed \p max_windows expire. `retire(C&)` is
  /// called on each candidate dropped (the fresh one included) before its
  /// shell is parked for reuse.
  template <typename KeepFn, typename InitFn, typename MergeFn, typename RetireFn>
  void Step(int max_windows, KeepFn&& keep, InitFn&& init, MergeFn&& merge,
            RetireFn&& retire) {
    C fresh = TakeShell();
    init(fresh);
    size_t out = head_;
    for (size_t i = head_; i < buf_.size(); ++i) {
      if (!keep(buf_[i].num_windows + fresh.num_windows)) {
        Park(buf_[i], retire);
        continue;
      }
      merge(buf_[i], fresh);
      if (out != i) buf_[out] = std::move(buf_[i]);
      ++out;
    }
    buf_.resize(out);
    if (keep(fresh.num_windows)) {
      buf_.push_back(std::move(fresh));
    } else {
      Park(fresh, retire);
    }
    while (!empty() && buf_[head_].num_windows > max_windows) {
      Park(buf_[head_], retire);
      ++head_;
    }
    MaybeCompact();
  }

  /// Removes candidates for which \p pred returns true; \p retire is called
  /// on each removed candidate before its shell is parked.
  template <typename Pred, typename RetireFn>
  void RemoveIf(Pred&& pred, RetireFn&& retire) {
    size_t out = head_;
    for (size_t i = head_; i < buf_.size(); ++i) {
      if (pred(buf_[i])) {
        Park(buf_[i], retire);
      } else {
        if (out != i) buf_[out] = std::move(buf_[i]);
        ++out;
      }
    }
    buf_.resize(out);
    MaybeCompact();
  }

  /// Drops all state (including recycled shells); \p retire sees every
  /// live candidate first.
  template <typename RetireFn>
  void Clear(RetireFn&& retire) {
    for (size_t i = head_; i < buf_.size(); ++i) retire(buf_[i]);
    buf_.clear();
    spares_.clear();
    head_ = 0;
  }

  /// Appends a fully constructed candidate behind the current newest one —
  /// checkpoint restore only. Candidates must be restored oldest-first
  /// (export order) so the front-to-back num_windows ordering that expiry
  /// relies on is preserved.
  void RestoreBack(C&& c) { buf_.push_back(std::move(c)); }

 private:
  /// Retires \p c and parks its shell for reuse.
  template <typename RetireFn>
  void Park(C& c, RetireFn& retire) {
    retire(c);
    spares_.push_back(std::move(c));
  }

  C TakeShell() {
    if (spares_.empty()) return C{};
    C shell = std::move(spares_.back());
    spares_.pop_back();
    return shell;
  }

  /// Slides the live range back to the buffer front once the dead prefix
  /// is as long as the live range: amortized O(1) moves per Step, no
  /// deallocation, and the buffer never outgrows twice the longest live
  /// range, so its capacity settles as soon as the live count peaks. (A
  /// fixed floor on the prefix would let a short Geometric list's buffer
  /// keep growing, one expiry per counter period, long after warmup.)
  void MaybeCompact() {
    if (head_ > 0 && head_ >= size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<C> buf_;     ///< live candidates are buf_[head_..)
  size_t head_ = 0;
  std::vector<C> spares_;  ///< retired shells kept for capacity reuse
};

}  // namespace vcd::stream
