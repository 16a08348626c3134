#pragma once

#include <cassert>
#include <cstring>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/fault/status.hpp"
#include "src/mpsim/costmodel.hpp"
#include "src/mpsim/mailbox.hpp"
#include "src/mpsim/stats.hpp"
#include "src/obs/live/recorder.hpp"
#include "src/obs/trace.hpp"

/// \file comm.hpp
/// Rank-local communication endpoint. Each rank function receives a Comm&
/// giving MPI-like point-to-point primitives plus the virtual clock. Sends
/// are eager (buffered, never block); receives block until a matching
/// message exists. Tags and sources are always explicit; matching is FIFO
/// per (source, tag), mirroring MPI's non-overtaking guarantee.

namespace ardbt::par {
class Pool;
}

namespace ardbt::fault {
class FaultPlan;
}

namespace ardbt::mpsim {

/// How virtual time advances between communication events.
enum class TimingMode {
  /// Charge measured per-thread CPU seconds (CLOCK_THREAD_CPUTIME_ID).
  /// Accurate on oversubscribed hosts because blocked threads accrue none.
  MeasuredCpu,
  /// Charge only explicitly reported flops at CostModel::flop_rate.
  /// Fully deterministic; used for model-mode scaling studies and tests.
  ChargedFlops,
};

class Engine;

/// Shared state of one engine run. Internal to mpsim.
struct World {
  int nranks = 0;
  CostModel cost;
  TimingMode timing = TimingMode::MeasuredCpu;
  double vtime_origin = 0.0;  ///< starting virtual time of every rank clock
  std::vector<Mailbox> mailboxes;
  /// Per-rank death flags (release-stored by the engine when a rank thread
  /// throws). Receives consult the flag of the rank they await, so failure
  /// propagates along data-flow edges deterministically instead of through
  /// a global abort racing against healthy ranks' progress.
  std::vector<std::atomic<bool>> dead;
  /// Installed fault-injection plan, or null for the common fault-free
  /// path: the only per-message overhead without a plan is this pointer
  /// test (mirrors the tracer's null-hook design).
  fault::FaultPlan* plan = nullptr;
  /// Virtual-wait budget per receive; a wait beyond it is counted as a
  /// deadline miss (detection signal for delayed/straggling peers). 0 = off.
  double virtual_deadline = 0.0;
  /// Wall-clock ceiling for a blocking receive before DeadlineError — the
  /// hang detector for crashed peers. 0 = wait forever.
  double recv_timeout_wall = 0.0;

  explicit World(int n, CostModel c, TimingMode t, double origin = 0.0)
      : nranks(n), cost(c), timing(t), vtime_origin(origin),
        mailboxes(static_cast<std::size_t>(n)), dead(static_cast<std::size_t>(n)) {}
};

/// Per-rank endpoint handed to the rank function by Engine::run.
class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank), vtime_(world.vtime_origin) {
    reset_cpu_baseline();
  }

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const { return world_->nranks; }
  const CostModel& cost() const { return world_->cost; }

  /// Untyped eager send of a byte payload.
  void send_bytes(int dst, int tag, std::span<const std::byte> payload);

  /// Blocking receive of the next message from (src, tag). The view stays
  /// valid until the run ends (the mailbox retains the payload).
  std::span<const std::byte> recv_bytes(int src, int tag);

  /// Non-blocking receive progress on the virtual clock: true when the
  /// next (src, tag) message is already visible at this rank's current
  /// virtual time. Never consumes the message and never advances the
  /// clock; may block wall-clock until the sender has physically pushed
  /// (so under ChargedFlops the answer is a deterministic function of the
  /// program, not of thread scheduling). Pipelined schedulers use it to
  /// decide which in-flight scan round to finish first. Honors
  /// recv_timeout_wall exactly like recv_bytes.
  bool recv_ready(int src, int tag);

  /// ---- message-tag registry ------------------------------------------
  /// Every in-flight scan must own a distinct tag per rank: the mailbox
  /// matches FIFO per (source, tag), so two concurrent users of one tag
  /// silently cross-match each other's payloads. CachedScan used to carry
  /// that rule as a comment; the registry makes it a typed runtime error.
  /// Dynamic tags live at kDynamicTagBase and above, below the collective
  /// range (1 << 24), leaving the small hand-picked tags (ard_tags, test
  /// tags) free.
  static constexpr int kDynamicTagBase = 1 << 20;

  /// Claim `tag` on this rank until release_tag. Throws
  /// fault::TagCollisionError if it is already held — the loud replacement
  /// for silent message cross-matching. Prefer the RAII TagGuard.
  void register_tag(int tag) {
    if (!tags_in_use_.insert(tag).second) throw fault::TagCollisionError(rank_, tag);
  }
  void release_tag(int tag) { tags_in_use_.erase(tag); }

  /// Lowest free dynamic tag (>= kDynamicTagBase) on this rank. Picks
  /// without claiming: the caller registers it (typically via the TagGuard
  /// inside CachedScan's steppers), so two users of the same pick collide
  /// loudly instead of racing. Because the solve schedule is
  /// SPMD-symmetric, every rank's allocator hands out the same sequence,
  /// which is what makes a picked tag valid as a cross-rank message tag.
  int next_tag() const {
    int t = kDynamicTagBase;
    while (tags_in_use_.contains(t)) ++t;
    return t;
  }

  /// Typed send of a span of trivially copyable elements.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, std::as_bytes(data));
  }

  /// Typed send of one value.
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, std::span<const T>(&v, 1));
  }

  /// Typed receive into a caller-provided span. A size mismatch (protocol
  /// bug or corrupted stream) throws fault::MessageSizeError rather than
  /// silently truncating under NDEBUG.
  template <typename T>
  void recv_into(int src, int tag, std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const std::byte> raw = recv_bytes(src, tag);
    if (raw.size() != out.size_bytes()) {
      throw fault::MessageSizeError(src, tag, static_cast<std::uint64_t>(out.size_bytes()),
                                    static_cast<std::uint64_t>(raw.size()));
    }
    std::memcpy(out.data(), raw.data(), raw.size());
  }

  /// Typed receive of one value.
  template <typename T>
  T recv_value(int src, int tag) {
    T v{};
    recv_into(src, tag, std::span<T>(&v, 1));
    return v;
  }

  /// Report `f` floating-point operations performed since the last event.
  /// Always counted in stats; advances the clock in ChargedFlops mode.
  void charge_flops(double f);

  /// Current virtual time in seconds. Folds the measured CPU time since
  /// the last event first, so under MeasuredCpu every read is current
  /// whether or not a tracer is installed.
  double vtime() {
    sync_compute();
    return vtime_;
  }

  /// Per-rank counters (final values collected by the engine).
  const RankStats& stats() const { return stats_; }

  /// Install this rank's event buffer (engine-called; null = no tracing).
  void set_trace(obs::RankTrace* trace) { trace_ = trace; }
  obs::RankTrace* trace() const { return trace_; }

  /// Install this rank's flight-recorder channel (engine-called; null =
  /// no recording). Taps live only on anomaly paths — fault marks and
  /// deadline misses — so the fault-free hot path cost is unchanged and
  /// the clock is never touched.
  void set_recorder(obs::live::RecorderChannel* recorder) { recorder_ = recorder; }
  obs::live::RecorderChannel* recorder() const { return recorder_; }

  /// Install this rank's intra-rank thread pool (engine-called when
  /// EngineOptions::threads_per_rank > 1; null = serial kernels). Rank
  /// functions hand this to pool-aware kernels (la::gemm, Thomas solves);
  /// it never changes virtual-time accounting — flop charges stay on the
  /// rank thread.
  void set_pool(par::Pool* pool) { pool_ = pool; }
  par::Pool* pool() const { return pool_; }

  /// Current {vtime, wall} sample (folds pending measured compute first).
  /// Anchors trace spans, including pool worker-lane spans, on this
  /// rank's virtual clock; requires tracing to be installed.
  obs::TimeSample now_sample() { return {vtime(), trace_->wall_now()}; }
  static obs::TimeSample now_sample_thunk(void* ctx) {
    return static_cast<Comm*>(ctx)->now_sample();
  }

  /// Open an RAII phase span on this rank's trace (see ARDBT_TRACE_SPAN).
  /// Returns an inactive scope when tracing is off; boundaries fold
  /// pending measured compute so span virtual times are exact.
  obs::SpanScope trace_scope(obs::SpanKind kind, const char* name) {
    if constexpr (!obs::kTraceCompiledIn) return {};
    if (trace_ == nullptr) return {};
    return obs::SpanScope(trace_, kind, name, &Comm::now_sample_thunk, this);
  }

 private:
  void reset_cpu_baseline();
  double cpu_now() const;
  /// Fold measured CPU time since the last event into the clock (and into
  /// stats().cpu_seconds). Every clock read and every send/recv calls it.
  void sync_compute();

  World* world_;
  int rank_;
  double vtime_ = 0.0;
  double cpu_baseline_ = 0.0;
  RankStats stats_;
  obs::RankTrace* trace_ = nullptr;
  obs::live::RecorderChannel* recorder_ = nullptr;
  par::Pool* pool_ = nullptr;
  /// Per-source sets of wire sequence numbers already delivered; used to
  /// drop injected duplicates. Receives with different tags may interleave
  /// out of send order, so a last-seq comparison would misfire — membership
  /// is the only correct test. Allocated only when a plan is installed.
  std::vector<std::unordered_set<std::uint64_t>> seen_seqs_;
  /// Rank-local set of registered (in-flight) message tags.
  std::unordered_set<int> tags_in_use_;
};

/// RAII claim on a message tag (see Comm::register_tag). Movable so scan
/// steppers can own their tag for exactly the in-flight window.
class TagGuard {
 public:
  TagGuard() = default;
  TagGuard(Comm& comm, int tag) : comm_(&comm), tag_(tag) { comm.register_tag(tag); }
  TagGuard(TagGuard&& other) noexcept : comm_(other.comm_), tag_(other.tag_) {
    other.comm_ = nullptr;
  }
  TagGuard& operator=(TagGuard&& other) noexcept {
    if (this != &other) {
      release();
      comm_ = other.comm_;
      tag_ = other.tag_;
      other.comm_ = nullptr;
    }
    return *this;
  }
  TagGuard(const TagGuard&) = delete;
  TagGuard& operator=(const TagGuard&) = delete;
  ~TagGuard() { release(); }

  void release() {
    if (comm_ != nullptr) {
      comm_->release_tag(tag_);
      comm_ = nullptr;
    }
  }

 private:
  Comm* comm_ = nullptr;
  int tag_ = -1;
};

}  // namespace ardbt::mpsim
