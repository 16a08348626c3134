#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/fault/status.hpp"

/// \file mailbox.hpp
/// Per-rank message queue. One mailbox per rank; senders push, the owning
/// rank pops by (source, tag). Matching is deterministic: among messages
/// with the same (source, tag), FIFO order is preserved (MPI
/// non-overtaking rule). A pop may carry a wall-clock deadline — the hang
/// detector behind crashed-peer recovery (fault::DeadlineError).

namespace ardbt::mpsim {

/// Thrown inside ranks when a receive can never complete because the
/// awaited peer died. Failure propagates along data-flow edges only: a
/// rank keeps computing (and sending) until it blocks on a message that
/// will never arrive, so the set of sends each rank performs in a failed
/// run — and with it every one-shot FaultPlan ordinal consumed — is a
/// pure function of the program, not of thread scheduling.
class AbortedError : public std::runtime_error {
 public:
  AbortedError() : std::runtime_error("mpsim run aborted by a failing rank") {}
};

/// A delivered message. `available_vtime` is the virtual instant at which
/// the payload is fully visible to the receiver (alpha-beta model).
struct Message {
  int source = -1;
  int tag = -1;
  std::vector<std::byte> payload;
  double available_vtime = 0.0;
  /// Tracer-assigned per-(sender, destination) sequence number so the
  /// receiver's wait/recv events can name the exact send that produced
  /// them (obs::TraceEvent::seq). 0 when tracing is off.
  std::uint64_t trace_seq = 0;
};

/// MPMC-push / single-consumer-pop queue with (source, tag) matching.
///
/// The mailbox also keeps every payload its rank has received until the
/// run ends (retain), so a payload buffer is freed by the thread that
/// destroys the World, in receive order, and never by a rank thread. A
/// receiver that freed it would park the sender's chunk in its own thread
/// cache; a rank-0 payload comes from the calling thread's heap, and such
/// a parked chunk splits that heap's free space at a point that depends
/// on thread scheduling.
class Mailbox {
 public:
  /// Enqueue a message (called by sender threads).
  void push(Message msg) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(msg));
    }
    cv_.notify_all();
  }

  /// Block until a message from `source` with `tag` is present, then remove
  /// and return it. Throws AbortedError only once `source_dead` is set AND
  /// no matching message is queued — a dead peer's pre-death sends are
  /// still delivered, so how far the receiver progresses is data-flow
  /// deterministic (never a race against the abort). Also throws
  /// fault::DeadlineError once `timeout_wall` seconds (0 = never) elapse
  /// without a match — the hang backstop for wedged (not crashed) peers.
  Message pop(int source, int tag, const std::atomic<bool>& source_dead,
              double timeout_wall = 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock lock(mutex_);
    for (;;) {
      // Read the flag before scanning: the dying rank's sends
      // happen-before its release-store, so dead==true guarantees the
      // scan below observes every message it ever pushed.
      const bool dead = source_dead.load(std::memory_order_acquire);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          Message msg = std::move(*it);
          queue_.erase(it);
          return msg;
        }
      }
      if (dead) throw AbortedError();
      if (timeout_wall > 0.0) {
        const double waited = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        if (waited > timeout_wall) throw fault::DeadlineError(source, tag, waited);
      }
      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  /// Non-blocking progress probe on the *virtual* clock: block (wall) only
  /// until a message from (source, tag) is physically queued, then report
  /// whether its FIFO-front match is already visible at virtual instant
  /// `cutoff` (available_vtime <= cutoff) WITHOUT consuming it. The result
  /// depends only on virtual times, so under ChargedFlops timing it is a
  /// deterministic function of the program — schedulers can use it to pick
  /// which of several in-flight scans to advance first. A dead source with
  /// nothing queued reports true so the caller's next blocking pop observes
  /// the death through the normal AbortedError path. The same
  /// `timeout_wall` backstop as pop applies, so a schedule that waits on a
  /// message nobody will send fails with fault::DeadlineError, not a hang.
  bool peek_available(int source, int tag, double cutoff,
                      const std::atomic<bool>& source_dead, double timeout_wall = 0.0) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock lock(mutex_);
    for (;;) {
      const bool dead = source_dead.load(std::memory_order_acquire);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->source == source && it->tag == tag) return it->available_vtime <= cutoff;
      }
      if (dead) return true;
      if (timeout_wall > 0.0) {
        const double waited = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();
        if (waited > timeout_wall) throw fault::DeadlineError(source, tag, waited);
      }
      cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }

  /// Keep a popped payload until the mailbox dies; the view stays valid
  /// until then. Consumer thread only (no lock).
  std::span<const std::byte> retain(std::vector<std::byte> payload) {
    delivered_.push_back(std::move(payload));
    return delivered_.back();
  }

  /// Wake any blocked pop so it can observe a peer death.
  void interrupt() { cv_.notify_all(); }

  /// Number of queued (unreceived) messages; for tests.
  std::size_t pending() const {
    std::lock_guard lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::vector<std::vector<std::byte>> delivered_;  ///< retained payloads, receive order
};

}  // namespace ardbt::mpsim
