#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

/// \file plan.hpp
/// Deterministic fault injection for the virtual-time simulator.
///
/// A FaultPlan is a list of faults, each keyed by (rank, nth send of that
/// rank): when rank r issues its nth point-to-point send, the matching
/// fault fires — once. Because the trigger is a rank-local ordinal, a
/// plan replays identically across runs and thread counts; there is no
/// wall-clock or randomness at fire time.
///
/// Supported fault kinds (FaultKind):
///   kDelay      — the message becomes visible `seconds` of virtual time
///                 late (models a slow link)
///   kDuplicate  — the message is delivered twice (the engine detects the
///                 duplicate by sequence number and drops it)
///   kBitFlip    — one payload bit is flipped in flight (the engine
///                 detects the mismatch by checksum and raises
///                 MessageCorruptError)
///   kStraggle   — the sending rank loses `seconds` of virtual time
///                 before the send (models a slow node)
///   kCrash      — the rank dies (InjectedCrashError) instead of sending
///
/// Mirroring the tracer design, an installed plan costs the hot path one
/// pointer test per send/receive; with no plan there is no framing, no
/// checksums and no counters — byte streams are identical to a build
/// without this file.
///
/// During a run each rank touches only its own slot of the per-rank state
/// (lock-free); the merged injected()/detected() logs are valid after the
/// run finishes.

namespace ardbt::fault {

/// What gets injected.
enum class FaultKind : std::uint8_t {
  kDelay,
  kDuplicate,
  kBitFlip,
  kStraggle,
  kCrash,
};

/// Stable lowercase name ("delay", "duplicate", "bit-flip", ...).
std::string_view to_string(FaultKind kind);

/// One planned fault. Fires when `rank` issues its `nth_send`-th
/// (0-based) send; `fired` flips so a retried run does not hit it again.
struct FaultSpec {
  FaultKind kind = FaultKind::kDelay;
  int rank = 0;
  std::uint64_t nth_send = 0;
  double seconds = 0.0;    ///< delay/straggle magnitude (virtual seconds)
  std::uint64_t bit = 0;   ///< payload bit index for kBitFlip (mod size)
  bool fired = false;
};

/// One thing that actually happened — either an injection at a sender or
/// a detection at a receiver. Collected for the run report.
struct FaultEvent {
  FaultKind kind = FaultKind::kDelay;
  int rank = -1;        ///< rank on which the event happened
  int peer = -1;        ///< destination (injected) / source (detected)
  int tag = -1;
  std::uint64_t seq = 0;
  double vtime = 0.0;
  bool detected = false;  ///< false = injected at sender, true = detected at receiver
};

/// The actions Comm::send_bytes must apply for one send.
struct SendActions {
  double delay_seconds = 0.0;
  double straggle_seconds = 0.0;
  bool duplicate = false;
  bool crash = false;
  bool flip = false;
  std::uint64_t flip_bit = 0;
  int injected_count = 0;  ///< how many specs fired on this send (stats)
};

/// Deterministic fault schedule. Build one with the fluent
/// helpers, install it via
/// mpsim::EngineOptions::fault_plan, read the logs after the run.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Fluent builders. `nth_send` counts that rank's sends from 0
  /// (collectives included — a barrier on 4 ranks is 2 sends per rank).
  FaultPlan& delay_message(int rank, std::uint64_t nth_send, double seconds);
  FaultPlan& duplicate_message(int rank, std::uint64_t nth_send);
  FaultPlan& flip_bit(int rank, std::uint64_t nth_send, std::uint64_t bit);
  FaultPlan& straggle(int rank, std::uint64_t nth_send, double seconds);
  FaultPlan& crash_before_send(int rank, std::uint64_t nth_send);
  FaultPlan& add(FaultSpec spec);

  bool empty() const { return specs_.size() == 0; }
  std::size_t size() const { return specs_.size(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

  /// Engine-called before the rank threads start: sizes per-rank state.
  /// Send ordinals and the fired flags persist across runs on purpose so
  /// a retried run does not re-trigger one-shot faults.
  void prepare(int nranks);

  /// Called by Comm::send_bytes on rank `rank` (its thread only): advance
  /// the rank's send ordinal, fire any matching faults, log them.
  SendActions on_send(int rank, int dst, int tag, double vtime);

  /// Called by Comm::recv_bytes when it detects (and survives) an
  /// injected fault, or by the engine for deadline misses.
  void record_detected(int rank, FaultKind kind, int src, int tag, std::uint64_t seq,
                       double vtime);

  /// Per-(sender dst) sequence number used for the wire framing; owned
  /// here so ordinals survive engine re-runs (retries).
  std::uint64_t next_seq(int rank, int dst);

  /// Logs merged over ranks in (rank, time) order; call after the run.
  std::vector<FaultEvent> injected() const;
  std::vector<FaultEvent> detected() const;

 private:
  struct RankState {
    std::uint64_t sends = 0;
    std::vector<std::uint64_t> send_seq;  ///< per-destination next sequence number
    std::vector<FaultEvent> injected;
    std::vector<FaultEvent> detected;
  };

  std::vector<FaultSpec> specs_;
  std::vector<RankState> per_rank_;
};

/// FNV-1a 64-bit checksum used for in-flight corruption detection.
std::uint64_t checksum(std::span<const std::byte> bytes);

}  // namespace ardbt::fault
