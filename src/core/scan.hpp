#pragma once

#include <bit>
#include <cassert>
#include <climits>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/mpsim/collectives.hpp"
#include "src/mpsim/comm.hpp"

/// \file scan.hpp
/// Generic factor-once / replay-many cross-rank exclusive scan — the
/// mechanism behind the accelerated solver's O(R) win.
///
/// Many parallel solver recurrences combine with an associative operator
/// whose state splits into a *matrix part* (Theta(M^3) to merge,
/// independent of the right-hand sides) and a *vector part* (Theta(M^2 R)
/// to merge). CachedScan runs the hypercube exscan once over matrix parts,
/// recording per merge event exactly what later vector merges need; every
/// subsequent solve replays the same schedule exchanging only vector
/// parts. Both phases are steppers: `Factoring` runs the matrix-part scan
/// and seals the CachedScan, `Replay` runs one vector-part scan of it. A
/// caller steps one to done() round by round, or two at once through
/// run_interleaved().
///
/// The operator is supplied as a policy type:
///
///   struct Op {
///     struct Context { ... };              // shapes etc., both phases
///     using Mat = ...;                     // matrix part of the state
///     using Vec = ...;                     // vector part of the state
///     struct Cache { ... };                // per-merge-event cache
///     // Merge matrix parts; `left` covers lower sequence positions.
///     static Mat merge_mat(const Context&, const Mat& left, const Mat& right,
///                          Cache& cache, mpsim::Comm&);
///     // Merge vector parts of the same (left, right) pair.
///     static Vec merge_vec(const Context&, const Cache&, const Vec& left,
///                          const Vec& right, mpsim::Comm&);
///     static std::vector<std::byte> ser_mat(const Context&, const Mat&);
///     static Mat des_mat(const Context&, std::span<const std::byte>);
///     static std::vector<std::byte> ser_vec(const Context&, const Vec&);
///     // des_vec must infer the RHS width from the byte count — solves
///     // with different widths replay the same factored scan.
///     static Vec des_vec(const Context&, std::span<const std::byte>);
///     // Optional: reclaim a consumed vector part (e.g. return arena
///     // storage). Called by Replay the moment a Vec's value is dead.
///     static void recycle_vec(const Context&, Vec&&);
///   };
///
/// Direction::kBackward runs the scan over reversed rank order (for
/// sweeps that flow from the last block row to the first).

namespace ardbt::core {

enum class ScanDirection { kForward, kBackward };

template <typename Op>
class CachedScan {
 public:
  using Context = typename Op::Context;
  using Mat = typename Op::Mat;
  using Vec = typename Op::Vec;
  using Cache = typename Op::Cache;

  CachedScan() = default;

  /// Stepwise replay of the factored schedule — the latency-hiding
  /// primitive behind pipelined panel solves. One Replay is one in-flight
  /// scan: construction posts the round-0 send, and each `finish_round()`
  /// receives one round, merges the half the *next* send depends on first,
  /// puts that send on the wire, and only then folds the exclusive-prefix
  /// half — so the next message is in flight while the rest of the round's
  /// compute (and anything else the caller interleaves between rounds)
  /// runs. Every merge sees the same operands whatever the stepping order,
  /// so results are bit-identical under any interleaving. The tag is held
  /// in the rank's registry for the lifetime of the Replay (collision =
  /// fault::TagCollisionError).
  class Replay {
   public:
    Replay() = default;

    /// Registers `tag` and posts the round-0 send (collective with the
    /// peer Replays driving the same factored scan).
    Replay(const CachedScan& scan, mpsim::Comm& comm, Vec seg_vec, int tag)
        : scan_(&scan), tag_(tag), guard_(comm, tag), partial_(std::move(seg_vec)) {
      post_send(comm);
    }

    bool done() const { return scan_ == nullptr || finished_ == scan_->rounds_.size(); }

    /// Hypercube level of the next round (INT_MAX once done).
    int level() const { return done() ? INT_MAX : scan_->rounds_[finished_].level; }

    /// True when the next round's message is already visible on the
    /// virtual clock (never consumes it). Deterministic under ChargedFlops
    /// timing — see Comm::recv_ready — so schedulers may branch on it.
    /// Blocks (wall clock) until that message has been posted.
    bool ready(mpsim::Comm& comm) const {
      return !done() && comm.recv_ready(scan_->rounds_[finished_].partner, tag_);
    }

    /// Receive one round and run its merges, next-send-first.
    void finish_round(mpsim::Comm& comm) {
      assert(scan_ != nullptr && sent_ > finished_ && finished_ < scan_->rounds_.size());
      const Round& round = scan_->rounds_[finished_];
      const auto raw = comm.recv_bytes(round.partner, tag_);
      Vec tmp = Op::des_vec(scan_->ctx_, raw);
      if (round.partner_is_lower) {
        // The next round's outgoing partial needs only the partial merge —
        // do it first and post the send, then fold the exclusive prefix
        // while that message is in flight.
        Vec merged = Op::merge_vec(scan_->ctx_, round.cache_partial, tmp, partial_, comm);
        scan_->recycle(std::move(partial_));
        partial_ = std::move(merged);
        ++finished_;
        post_send(comm);
        if (round.result_was_set) {
          Vec prev = std::move(*result_);
          result_ = Op::merge_vec(scan_->ctx_, *round.cache_result, tmp, prev, comm);
          scan_->recycle(std::move(prev));
          scan_->recycle(std::move(tmp));
        } else {
          result_ = std::move(tmp);
        }
      } else {
        Vec merged = Op::merge_vec(scan_->ctx_, round.cache_partial, partial_, tmp, comm);
        scan_->recycle(std::move(partial_));
        scan_->recycle(std::move(tmp));
        partial_ = std::move(merged);
        ++finished_;
        post_send(comm);
      }
    }

    /// All rounds done: recycle the final partial, release the tag, and
    /// hand back the exclusive-prefix vector part (nullopt on the
    /// sequence-first rank).
    std::optional<Vec> take_result() && {
      assert(done());
      if (scan_ != nullptr) scan_->recycle(std::move(partial_));
      guard_.release();
      return std::move(result_);
    }

   private:
    void post_send(mpsim::Comm& comm) {
      if (sent_ < scan_->rounds_.size() && sent_ <= finished_) {
        comm.send_bytes(scan_->rounds_[sent_].partner, tag_,
                        Op::ser_vec(scan_->ctx_, partial_));
        ++sent_;
      }
    }

    const CachedScan* scan_ = nullptr;
    int tag_ = -1;
    mpsim::TagGuard guard_;
    Vec partial_{};
    std::optional<Vec> result_;
    std::size_t sent_ = 0;
    std::size_t finished_ = 0;
  };

  /// Stepwise factor — the matrix-part counterpart of Replay. Construction
  /// registers `tag` (unique per in-flight scan; a collision throws
  /// fault::TagCollisionError) and posts the round-0 send; finish() seals
  /// the CachedScan.
  class Factoring {
   public:
    Factoring(mpsim::Comm& comm, ScanDirection dir, Context ctx, Mat seg, int tag)
        : tag_(tag), guard_(comm, tag), partial_(std::move(seg)) {
      scan_.ctx_ = ctx;
      const int size = comm.size();
      const int seq = seq_of(comm.rank(), size, dir);
      for (const mpsim::ScanStep& step : mpsim::exscan_schedule(seq, size)) {
        Round round;
        round.partner = rank_of(step.partner, size, dir);
        round.partner_is_lower = step.partner_is_lower;
        round.level = std::countr_zero(static_cast<unsigned>(seq ^ step.partner));
        scan_.rounds_.push_back(std::move(round));
      }
      post_send(comm);
    }

    bool done() const { return finished_ == scan_.rounds_.size(); }

    int level() const { return done() ? INT_MAX : scan_.rounds_[finished_].level; }

    bool ready(mpsim::Comm& comm) const {
      return !done() && comm.recv_ready(scan_.rounds_[finished_].partner, tag_);
    }

    /// Receive one round; merge next-send-first exactly as Replay does.
    void finish_round(mpsim::Comm& comm) {
      assert(sent_ > finished_ && finished_ < scan_.rounds_.size());
      Round& round = scan_.rounds_[finished_];
      const auto raw = comm.recv_bytes(round.partner, tag_);
      Mat tmp = Op::des_mat(scan_.ctx_, raw);
      if (round.partner_is_lower) {
        round.result_was_set = result_.has_value();
        Mat merged = Op::merge_mat(scan_.ctx_, tmp, partial_, round.cache_partial, comm);
        partial_ = std::move(merged);
        ++finished_;
        post_send(comm);
        if (round.result_was_set) {
          round.cache_result.emplace();
          Mat prev = std::move(*result_);
          result_ = Op::merge_mat(scan_.ctx_, tmp, prev, *round.cache_result, comm);
        } else {
          result_ = std::move(tmp);
        }
      } else {
        partial_ = Op::merge_mat(scan_.ctx_, partial_, tmp, round.cache_partial, comm);
        ++finished_;
        post_send(comm);
      }
    }

    /// Seal and return the factored scan; releases the tag.
    CachedScan finish() && {
      assert(done());
      scan_.has_result_ = result_.has_value();
      if (result_) scan_.result_mat_ = std::move(*result_);
      guard_.release();
      return std::move(scan_);
    }

   private:
    void post_send(mpsim::Comm& comm) {
      if (sent_ < scan_.rounds_.size() && sent_ <= finished_) {
        comm.send_bytes(scan_.rounds_[sent_].partner, tag_,
                        Op::ser_mat(scan_.ctx_, partial_));
        ++sent_;
      }
    }

    int tag_ = -1;
    mpsim::TagGuard guard_;
    CachedScan scan_;
    Mat partial_{};
    std::optional<Mat> result_;
    std::size_t sent_ = 0;
    std::size_t finished_ = 0;
  };

  /// Whether this rank has a non-trivial exclusive prefix (false only for
  /// the sequence-first rank).
  bool has_incoming() const { return has_result_; }

  /// Matrix part of the exclusive prefix (valid when has_incoming()).
  const Mat& incoming_mat() const { return result_mat_; }

  std::size_t num_rounds() const { return rounds_.size(); }

 private:
  /// Hand a dead Vec back to the policy if it wants it (arena reuse);
  /// policies without a recycle_vec hook compile to a plain destructor.
  void recycle(Vec&& v) const {
    if constexpr (requires { Op::recycle_vec(ctx_, std::move(v)); }) {
      Op::recycle_vec(ctx_, std::move(v));
    }
  }

  struct Round {
    int partner = -1;
    int level = 0;  ///< hypercube dimension of this exchange (sequence space)
    bool partner_is_lower = false;
    bool result_was_set = false;
    Cache cache_partial{};
    std::optional<Cache> cache_result;
  };

  static int seq_of(int rank, int size, ScanDirection dir) {
    return dir == ScanDirection::kForward ? rank : size - 1 - rank;
  }
  static int rank_of(int seq, int size, ScanDirection dir) {
    return dir == ScanDirection::kForward ? seq : size - 1 - seq;
  }

  Context ctx_{};
  bool has_result_ = false;
  Mat result_mat_{};
  std::vector<Round> rounds_;
};

/// Drive two in-flight scan steppers (Factoring or Replay, e.g. a forward
/// and a backward scan) to completion, round-interleaved so each one's
/// merges run while the other's message is on the wire.
///
/// Rounds go in order of hypercube level. That order is what makes the
/// interleaving deadlock-free on any rank count: a level-d message only
/// depends on its sender's rounds below d, so by induction every level
/// completes. ready() blocks until the message is posted, so consulting
/// it across levels could wait on a partner that first needs this rank's
/// next lower-level send (on non-power-of-two P that is a deadlock).
/// Between two rounds of the same level, whichever message is already
/// visible on the virtual clock goes first; ready() is deterministic
/// under ChargedFlops timing, so every virtual time is reproducible.
template <typename A, typename B>
void run_interleaved(mpsim::Comm& comm, A& a, B& b) {
  while (!a.done() || !b.done()) {
    const bool take_a = a.level() < b.level() ||
                        (a.level() == b.level() && (a.ready(comm) || !b.ready(comm)));
    if (take_a) {
      a.finish_round(comm);
    } else {
      b.finish_round(comm);
    }
  }
}

}  // namespace ardbt::core
