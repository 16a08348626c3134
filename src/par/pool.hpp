#pragma once

#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"

/// \file pool.hpp
/// Fixed-size fork-join worker pool: intra-rank parallelism, and the
/// engine's parked rank threads.
///
/// Each simulated rank may own one Pool; the hot kernels (la::gemm,
/// block-Thomas solves, the PCR level updates) split their independent
/// right-hand-side / column dimension across it. The engine also hosts the
/// ranks themselves on a P-lane Pool kept parked between runs:
/// parallel_for(0, P, ...) puts rank r on lane r, the calling thread being
/// rank 0 (see mpsim::run). The design constraints, in order:
///
///   1. **Determinism.** parallel_for uses static chunking only: the range
///      is split into `threads()` contiguous chunks with boundaries that
///      are a pure function of (range, chunk index, thread count), and
///      chunk t always runs on lane t. Because every kernel we offload
///      computes each output element with a thread-count-independent
///      sequence of floating-point operations, results are bit-identical
///      for ANY pool size, including no pool at all. There is no work
///      stealing and no atomics-based splitting on purpose.
///   2. **No busy waiting.** Workers block on a condition variable between
///      jobs, so an oversubscribed host (P ranks x T workers on few cores)
///      loses nothing to spinning.
///   3. **Exception safety.** The first exception thrown by any chunk is
///      captured and rethrown on the calling thread after the join.
///
/// Nested parallelism is not supported: a chunk function must not call
/// back into parallel_for on the same pool (kernels therefore never
/// forward the pool into their inner calls).
///
/// Tracing: when the engine wires per-worker obs::RankTrace lanes (one per
/// lane, lane 0 being the calling rank thread's share), every executed
/// chunk is recorded as a compute span, so Chrome traces show worker lanes
/// under each rank track. Worker spans are stamped on the rank's virtual
/// clock by anchoring host wall time at job start: vtime = anchor.vtime +
/// (wall - anchor.wall). See docs/PARALLELISM.md.

namespace ardbt::par {

class Pool {
 public:
  /// Chunk body: half-open index range [begin, end).
  using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;
  /// Clock thunk supplying the virtual/wall anchor at job start
  /// (signature shared with obs::SpanScope).
  using NowFn = obs::TimeSample (*)(void*);

  /// A pool of `threads` lanes: the calling thread plus `threads - 1`
  /// spawned workers. `threads` must be >= 1; a 1-thread pool runs
  /// everything inline and spawns nothing.
  explicit Pool(int threads);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const { return nthreads_; }

  /// Install per-lane trace sinks (`lanes.size() == threads()`; lane 0 is
  /// the calling thread) and the clock thunk used to anchor worker spans
  /// on the owning rank's virtual clock; empty `lanes` and a null `now`
  /// clear them. Call only between jobs.
  void set_trace(std::vector<obs::RankTrace*> lanes, NowFn now, void* now_ctx);

  /// Run `fn` over [begin, end) split into threads() static contiguous
  /// chunks (chunk t on lane t). Blocks until every chunk finished;
  /// rethrows the first chunk exception. Must be called from the owning
  /// (non-worker) thread; chunks must not touch the pool.
  void parallel_for(std::int64_t begin, std::int64_t end, const ChunkFn& fn,
                    const char* name = "par.for");

  /// Static chunk boundaries: the half-open subrange of [begin, end)
  /// assigned to `chunk` of `nchunks`. Balanced to within one element;
  /// depends only on the arguments (the determinism contract).
  static std::pair<std::int64_t, std::int64_t> chunk_bounds(std::int64_t begin, std::int64_t end,
                                                            int chunk, int nchunks);

 private:
  struct Job {
    const ChunkFn* fn = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    const char* name = "par.for";
    obs::TimeSample anchor{};
    bool traced = false;
  };

  void worker_main(int worker);
  void run_chunk(const Job& job, int lane);

  int nthreads_ = 1;
  std::vector<std::thread> workers_;
  std::vector<obs::RankTrace*> lanes_;
  NowFn now_ = nullptr;
  void* now_ctx_ = nullptr;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;  ///< bumped once per job; workers watch it
  int unfinished_ = 0;       ///< workers still running the current job
  bool stop_ = false;
  Job job_;
  std::exception_ptr error_;
};

/// Serial-fallback helper: runs inline when `pool` is null or single-lane.
inline void parallel_for(Pool* pool, std::int64_t begin, std::int64_t end,
                         const Pool::ChunkFn& fn, const char* name = "par.for") {
  if (pool != nullptr && pool->threads() > 1) {
    pool->parallel_for(begin, end, fn, name);
  } else if (end > begin) {
    fn(begin, end);
  }
}

}  // namespace ardbt::par
