#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

/// \file combiner.h
/// The two candidate-sequence combination orders of paper §IV-A (Fig. 2).
///
/// Candidates grow by absorbing each newly completed basic window.
/// *Sequential order* maintains one candidate per start window — every
/// suffix of the recent stream of length 1..⌈λL/w⌉ windows — at the cost of
/// ⌈λL/w⌉ combinations per arriving window. *Geometric order* maintains a
/// binary-counter ladder of candidates whose sizes are powers of two, so an
/// arriving window triggers at most ⌈log i⌉ merges; fewer candidate lengths
/// are materialized, which trades recall for speed exactly as the paper
/// describes.
///
/// The candidate payload type `C` must expose an `int num_windows` member;
/// merging of payloads (sketch element-wise min, or bit-signature OR) is
/// supplied by the caller.
///
/// ### Recycling
/// Both containers work in place, for payloads that hold arena handles (see
/// sketch/signature_pool.h) and reuse buffer capacity:
/// `Step(max_windows, init, merge, retire)` builds the fresh
/// candidate inside a recycled shell (`init(C&)` must fully overwrite it),
/// and every candidate the container drops is passed to `retire(C&)` —
/// which must release external resources such as pool handles — before its
/// shell is parked for reuse. Shells keep their vector capacities, so the
/// steady-state window cycle performs no heap allocation.

namespace vcd::stream {

/// \brief Sequential order: every suffix of recent windows is a candidate.
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

  /// Absorbs a fresh single-window candidate: `init(C&)` fills a recycled
  /// shell with it (it must overwrite every field), `merge(into, fresh)`
  /// merges it into every live candidate (oldest first) and must also
  /// advance `into.num_windows`, then it is appended and candidates that
  /// now exceed \p max_windows expire. `retire(C&)` is called on each
  /// expired candidate before its shell is parked for reuse.
  template <typename InitFn, typename MergeFn, typename RetireFn>
  void Step(int max_windows, InitFn&& init, MergeFn&& merge, RetireFn&& retire) {
    C fresh = TakeShell();
    init(fresh);
    for (size_t i = head_; i < buf_.size(); ++i) merge(buf_[i], fresh);
    buf_.push_back(std::move(fresh));
    while (!empty() && buf_[head_].num_windows > max_windows) {
      retire(buf_[head_]);
      spares_.push_back(std::move(buf_[head_]));
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
        retire(buf_[i]);
        spares_.push_back(std::move(buf_[i]));
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
  C TakeShell() {
    if (spares_.empty()) return C{};
    C shell = std::move(spares_.back());
    spares_.pop_back();
    return shell;
  }

  /// Slides the live range back to the buffer front once the dead prefix
  /// dominates — amortized O(1) moves per Step, no deallocation.
  void MaybeCompact() {
    if (head_ >= 32 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<C> buf_;     ///< live candidates are buf_[head_..)
  size_t head_ = 0;
  std::vector<C> spares_;  ///< retired shells kept for capacity reuse
};

/// \brief Geometric order: a binary-counter ladder of power-of-two sized
/// candidates; at most ⌈log i⌉ merges per arriving window.
template <typename C>
class GeometricCandidates {
 public:
  /// Absorbs a fresh single-window candidate, which `init(C&)` fills into a
  /// recycled shell, carrying merges up the ladder. `merge(older, newer)`
  /// merges `newer` into `older` (which precedes it on the stream) and must
  /// accumulate `num_windows`. A carry longer than \p max_windows is
  /// dropped (expiry). `retire(C&)` is called on every candidate the ladder
  /// drops — the absorbed (newer) side of each carry merge, and an expired
  /// carry — before its shell is parked for reuse.
  template <typename InitFn, typename MergeFn, typename RetireFn>
  void Step(int max_windows, InitFn&& init, MergeFn&& merge, RetireFn&& retire) {
    C carry = TakeShell();
    init(carry);
    size_t level = 0;
    for (;;) {
      if (level >= ladder_.size()) ladder_.resize(level + 1);
      if (!ladder_[level].has_value()) {
        if (carry.num_windows > max_windows) {  // expired before placement
          retire(carry);
          spares_.push_back(std::move(carry));
          return;
        }
        ladder_[level] = std::move(carry);
        return;
      }
      // The resident candidate is older (covers earlier windows); the carry
      // extends it to the present.
      C older = std::move(*ladder_[level]);
      ladder_[level].reset();
      merge(older, carry);
      retire(carry);
      spares_.push_back(std::move(carry));
      carry = std::move(older);
      ++level;
    }
  }

  /// \brief Visits the cumulative suffix candidates (Fig. 2): the newest
  /// block, then that block extended by the next-older block, and so on —
  /// the sequences "ending now" with geometrically spaced lengths that
  /// Geometric order actually tests.
  ///
  /// The sweep runs in caller-owned scratch: `assign(dst, src)` clones
  /// stored block \p src into shell \p dst (the shell arrives retired —
  /// external resources released, buffers reusable); `merge(older, newer)`
  /// is the same merge as Step; `visit(c)` is called on each cumulative
  /// candidate; `retire(C&)` releases a shell's external resources. Using
  /// two shells (\p cum and \p tmp) makes the whole sweep allocation-free
  /// for arena-backed payloads. Visiting stops once a cumulative candidate
  /// would exceed \p max_windows.
  template <typename AssignFn, typename MergeFn, typename VisitFn,
            typename RetireFn>
  void VisitSuffixesInto(int max_windows, C* cum, C* tmp, AssignFn&& assign,
                         MergeFn&& merge, VisitFn&& visit,
                         RetireFn&& retire) const {
    bool have = false;
    for (const auto& slot : ladder_) {
      if (!slot.has_value()) continue;
      if (!have) {
        assign(*cum, *slot);
        have = true;
      } else {
        if (slot->num_windows + cum->num_windows > max_windows) break;
        assign(*tmp, *slot);
        merge(*tmp, *cum);
        retire(*cum);
        std::swap(*cum, *tmp);
      }
      if (cum->num_windows > max_windows) break;
      visit(*cum);
    }
    if (have) retire(*cum);
  }

  /// Live candidates (unordered across levels; level index grows with size).
  std::vector<std::optional<C>>& ladder() { return ladder_; }
  /// \copydoc ladder
  const std::vector<std::optional<C>>& ladder() const { return ladder_; }

  /// Calls \p fn on every live candidate.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& slot : ladder_) {
      if (slot.has_value()) fn(*slot);
    }
  }

  /// Drops all state (including recycled shells); \p retire sees every
  /// live candidate first.
  template <typename RetireFn>
  void Clear(RetireFn&& retire) {
    for (auto& slot : ladder_) {
      if (slot.has_value()) retire(*slot);
    }
    ladder_.clear();
    spares_.clear();
  }

 private:
  C TakeShell() {
    if (spares_.empty()) return C{};
    C shell = std::move(spares_.back());
    spares_.pop_back();
    return shell;
  }

  std::vector<std::optional<C>> ladder_;
  std::vector<C> spares_;  ///< retired shells kept for capacity reuse
};

}  // namespace vcd::stream
