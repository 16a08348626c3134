#pragma once

#include "src/mpsim/engine.hpp"

/// \file run_ranks.hpp
/// How tests start ranks: mpsim::run with a wall-clock receive timeout, so
/// a deadlocked schedule fails fast with fault::DeadlineError instead of
/// hanging the suite. Every test except those of mpsim::run itself starts
/// its ranks here; the check_test_engine ctest
/// (tools/check_test_engine.py) fails on any other direct call.

namespace ardbt::test {

/// The receive timeout applied when the caller's options set none.
inline constexpr double kRecvTimeoutWall = 30.0;

/// mpsim::run(nranks, fn, options), with options.recv_timeout_wall set to
/// kRecvTimeoutWall unless the caller set one.
inline mpsim::RunReport run_ranks(int nranks, const mpsim::RankFn& fn,
                                  mpsim::EngineOptions options = {}) {
  if (options.recv_timeout_wall <= 0.0) options.recv_timeout_wall = kRecvTimeoutWall;
  return mpsim::run(nranks, fn, options);
}

}  // namespace ardbt::test
