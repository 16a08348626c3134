#include "src/par/pool.hpp"

#include <cassert>

#include "src/fault/status.hpp"

namespace ardbt::par {

Pool::Pool(int threads) : nthreads_(threads) {
  if (threads < 1) throw fault::InvalidArgumentError("par::Pool", "threads must be >= 1");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 0; w < threads - 1; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void Pool::set_trace(std::vector<obs::RankTrace*> lanes, NowFn now, void* now_ctx) {
  assert(lanes.empty() || static_cast<int>(lanes.size()) == nthreads_);
  lanes_ = std::move(lanes);
  now_ = now;
  now_ctx_ = now_ctx;
}

std::pair<std::int64_t, std::int64_t> Pool::chunk_bounds(std::int64_t begin, std::int64_t end,
                                                         int chunk, int nchunks) {
  assert(nchunks >= 1 && chunk >= 0 && chunk < nchunks);
  const std::int64_t n = end > begin ? end - begin : 0;
  const std::int64_t lo = begin + n * chunk / nchunks;
  const std::int64_t hi = begin + n * (chunk + 1) / nchunks;
  return {lo, hi};
}

void Pool::run_chunk(const Job& job, int lane) {
  const auto [lo, hi] = chunk_bounds(job.begin, job.end, lane, nthreads_);
  if (lo >= hi) return;
  obs::RankTrace* trace =
      (obs::kTraceCompiledIn && job.traced && lane < static_cast<int>(lanes_.size()))
          ? lanes_[static_cast<std::size_t>(lane)]
          : nullptr;
  if (trace == nullptr) {
    (*job.fn)(lo, hi);
    return;
  }
  // Anchor the worker span on the owning rank's virtual clock: the rank's
  // vtime does not advance during the fork-join region, so wall offsets
  // from the job anchor give lanes their real relative timing.
  const double wall0 = trace->wall_now();
  (*job.fn)(lo, hi);
  const double wall1 = trace->wall_now();
  trace->complete(obs::SpanKind::kCompute, job.name,
                  {job.anchor.vtime + (wall0 - job.anchor.wall), wall0},
                  {job.anchor.vtime + (wall1 - job.anchor.wall), wall1},
                  /*peer=*/-1, /*bytes=*/0);
}

void Pool::worker_main(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    try {
      run_chunk(job, worker + 1);  // lane 0 is the calling thread
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      --unfinished_;
    }
    done_cv_.notify_all();
  }
}

void Pool::parallel_for(std::int64_t begin, std::int64_t end, const ChunkFn& fn,
                        const char* name) {
  if (end <= begin) return;
  if (nthreads_ == 1) {
    fn(begin, end);
    return;
  }
  Job job;
  job.fn = &fn;
  job.begin = begin;
  job.end = end;
  job.name = name;
  if (now_ != nullptr && !lanes_.empty()) {
    job.anchor = now_(now_ctx_);
    job.traced = true;
  }
  {
    std::lock_guard lock(mu_);
    job_ = job;
    ++epoch_;
    unfinished_ = nthreads_ - 1;
  }
  work_cv_.notify_all();

  std::exception_ptr caller_error;
  try {
    run_chunk(job, 0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    if (!error_ && caller_error) error_ = caller_error;
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
  }
}

}  // namespace ardbt::par
