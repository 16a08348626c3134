#pragma once

#include "src/core/ard.hpp"

/// \file periodic.hpp
/// Periodic (cyclic) block tridiagonal systems — block tridiagonal plus
/// corner blocks coupling the first and last block rows:
///
///   | D_0 C_0              B_0    | B_0 = corner_lower(0, N-1)
///   | A_1 D_1 C_1                 |
///   |      ...                    |
///   | C_N          A_{N-1} D_{N-1}| C_N = corner_upper(N-1, 0)
///
/// the form periodic boundary conditions produce (cyclic ADI lines,
/// toroidal geometries). Solved by the Woodbury identity on top of the
/// ARD factorization of the acyclic part T:
///
///   T_p = T + U F^T,   U = E W (nonzero only in the first/last block
///   rows), F = [e_first | e_last],
///   T_p^{-1} = T^{-1} - (T^{-1} U) (I + F^T T^{-1} U)^{-1} F^T T^{-1}.
///
/// The factor phase computes T^{-1} U (one 2M-column ARD solve, each rank
/// keeping its row slice) and the LU of the 2M x 2M capacitance matrix —
/// all right-hand-side independent, so the accelerated factor/solve split
/// carries over: each periodic solve is one ARD solve plus O(M^2 R) of
/// correction and two M x R broadcasts.

namespace ardbt::core {

/// Tags used by the periodic solver.
namespace periodic_tags {
inline constexpr int kFirstRow = 98;
inline constexpr int kLastRow = 99;
}  // namespace periodic_tags

/// Factor-once / solve-many periodic solver. Requires N >= 3 so the
/// corner couplings are distinct from the tridiagonal ones.
class PeriodicArdFactorization {
 public:
  PeriodicArdFactorization() = default;

  /// Collective. `sys` is the acyclic part; `corner_lower` couples row 0
  /// to row N-1 (the B_0 block), `corner_upper` couples row N-1 to row 0
  /// (the C_N block). Throws std::runtime_error on singular pivots or a
  /// singular capacitance matrix. Borrows `sys` as
  /// ArdFactorization::factor does.
  static PeriodicArdFactorization factor(mpsim::Comm& comm, const btds::BlockTridiag& sys,
                                         const la::Matrix& corner_lower,
                                         const la::Matrix& corner_upper,
                                         const btds::RowPartition& part,
                                         const ArdOptions& opts = {});
  static PeriodicArdFactorization factor(mpsim::Comm&, btds::BlockTridiag&&, const la::Matrix&,
                                         const la::Matrix&, const btds::RowPartition&,
                                         const ArdOptions& = {}) = delete;

  /// Collective. Solve the periodic system for all columns of `b`;
  /// writes this rank's block rows of `x` (global shapes, as
  /// ArdFactorization::solve).
  void solve(mpsim::Comm& comm, const la::Matrix& b, la::Matrix& x) const;

  la::index_t num_blocks() const { return n_; }
  la::index_t block_size() const { return m_; }

 private:
  int rank_ = 0;
  int nranks_ = 1;
  la::index_t n_ = 0;
  la::index_t m_ = 0;
  la::index_t lo_ = 0;
  la::index_t hi_ = 0;

  ArdFactorization base_;   // factorization of the acyclic part
  la::Matrix tu_local_;     // this rank's rows of T^{-1} U  (nloc*M x 2M)
  la::LuFactors cap_lu_;    // LU of I + F^T T^{-1} U        (2M x 2M)
};

/// Apply the periodic operator (acyclic part + corners) — ground truth
/// for tests and residual checks.
la::Matrix apply_periodic(const btds::BlockTridiag& sys, const la::Matrix& corner_lower,
                          const la::Matrix& corner_upper, const la::Matrix& x);

}  // namespace ardbt::core
