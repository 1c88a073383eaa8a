//===- support/Numerics.h - Small numeric kernels --------------*- C++ -*-===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense linear algebra and root finding used by the thermal and hydraulic
/// solvers. Problem sizes in skatsim are small (tens to a few thousand
/// unknowns), so dense LU with partial pivoting is sufficient and robust.
///
//===----------------------------------------------------------------------===//

#ifndef RCS_SUPPORT_NUMERICS_H
#define RCS_SUPPORT_NUMERICS_H

#include "support/Status.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace rcs {

/// A dense row-major matrix of doubles.
class Matrix {
public:
  Matrix() = default;

  /// Creates a Rows x Cols matrix initialized to zero.
  Matrix(size_t Rows, size_t Cols)
      : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, 0.0) {}

  size_t rows() const { return NumRows; }
  size_t cols() const { return NumCols; }

  double &at(size_t Row, size_t Col) {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }
  double at(size_t Row, size_t Col) const {
    assert(Row < NumRows && Col < NumCols && "matrix index out of range");
    return Data[Row * NumCols + Col];
  }

  /// Creates an identity matrix of size N.
  static Matrix identity(size_t N);

  /// Matrix-vector product; \p X must have cols() entries.
  std::vector<double> apply(const std::vector<double> &X) const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double> Data;
};

/// Solves A * X = B in place via LU with partial pivoting.
///
/// \returns an error when the matrix is singular to working precision.
Expected<std::vector<double>> solveDense(Matrix A, std::vector<double> B);

/// A reusable LU factorization with partial pivoting.
///
/// factor() runs the same elimination as solveDense but records the
/// multipliers and pivot rows; solve() replays them against a right-hand
/// side in the identical order (same row swaps, same exact-zero skips,
/// same operand grouping). A factor()+solve() pair therefore produces a
/// solution that is bit-identical to solveDense(A, B) for the same
/// inputs, which is what lets the thermal solver cache factorizations
/// across transient steps without perturbing results.
class LuFactorization {
public:
  LuFactorization() = default;

  /// Factors \p A (consumed). Returns an error when singular to working
  /// precision; the factorization is invalid afterwards.
  Status factor(Matrix A);

  /// True after a successful factor().
  bool valid() const { return Valid; }

  /// Number of rows/columns of the factored matrix (0 when invalid).
  size_t size() const { return Valid ? Lu.rows() : 0; }

  /// Solves A * X = B using the stored factors. Requires valid().
  std::vector<double> solve(std::vector<double> B) const;

private:
  /// Packed factors: multipliers below the diagonal, U on and above it.
  Matrix Lu;
  /// The below-diagonal multipliers again, packed column-major in
  /// elimination order: the forward pass streams them sequentially
  /// instead of striding down the row-major Lu (which costs a cache miss
  /// per multiplier at solver sizes).
  std::vector<double> LowerPacked;
  /// Pivot row chosen while eliminating each column.
  std::vector<size_t> PivotRow;
  bool Valid = false;
};

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// \p Lower has N-1 entries (subdiagonal), \p Diag N entries, \p Upper N-1
/// entries. \returns an error on a zero pivot.
Expected<std::vector<double>>
solveTridiagonal(std::vector<double> Lower, std::vector<double> Diag,
                 std::vector<double> Upper, std::vector<double> Rhs);

/// Options controlling scalar root searches.
struct RootFindOptions {
  double AbsTolerance = 1e-10;
  int MaxIterations = 200;
};

/// Finds a root of \p F in [Low, High] with Brent's method.
///
/// Requires F(Low) and F(High) to have opposite signs.
Expected<double> findRootBrent(const std::function<double(double)> &F,
                               double Low, double High,
                               RootFindOptions Options = RootFindOptions());

/// As above from known end values \p LowValue = F(Low), \p HighValue =
/// F(High): the same iterates, without evaluating the ends again.
Expected<double> findRootBrent(const std::function<double(double)> &F,
                               double Low, double High, double LowValue,
                               double HighValue,
                               RootFindOptions Options = RootFindOptions());

/// Newton iteration with numeric derivative and bisection fallback bounds.
///
/// Falls back to Brent within [Low, High] when Newton leaves the bracket.
Expected<double> findRootNewton(const std::function<double(double)> &F,
                                double Initial, double Low, double High,
                                RootFindOptions Options = RootFindOptions());

/// Result of a damped multi-dimensional Newton solve.
struct NewtonResult {
  std::vector<double> Solution;
  int Iterations = 0;
  double ResidualNorm = 0.0;
  bool Converged = false;
};

/// One reported iterate of solveNewtonSystem (see NewtonOptions::Observer).
struct NewtonIterate {
  /// 0 for the initial point, then 1.. for each accepted Newton step.
  int Iteration = 0;
  /// Euclidean norm of the residual at this iterate.
  double ResidualNorm = 0.0;
  /// Infinity norm of the residual at this iterate.
  double MaxAbsResidual = 0.0;
  /// Accepted line-search scale (1 = full Newton step; 0 at the initial
  /// point, where no step has been taken).
  double Damping = 0.0;
};

/// Options for solveNewtonSystem.
struct NewtonOptions {
  double ResidualTolerance = 1e-9;
  double StepTolerance = 1e-12;
  int MaxIterations = 100;
  /// Perturbation for finite-difference Jacobians. Relative to each
  /// unknown's magnitude by default; absolute when JacobianRelative is
  /// false (useful when unknowns span orders of magnitude but the
  /// residual's sensitivity does not scale with them).
  double JacobianEpsilon = 1e-7;
  bool JacobianRelative = true;
  /// Maximum damping halvings per step.
  int MaxBacktracks = 30;
  /// When set, called at the initial point and after every accepted
  /// Newton step — the hook convergence diagnostics and telemetry hang
  /// from. Must not mutate solver state.
  std::function<void(const NewtonIterate &)> Observer;
  /// When set, used instead of finite differences. Called with the
  /// current iterate X and the residual F(X) at that iterate; must return
  /// an N x N matrix of dF_i/dX_j. The solver guarantees that the most
  /// recent residual evaluation was at exactly this X, so callers may
  /// reuse state cached during that evaluation.
  std::function<Matrix(const std::vector<double> &X,
                       const std::vector<double> &Fx)>
      Jacobian;
};

/// Solves F(X) = 0 with damped Newton. The Jacobian comes from
/// NewtonOptions::Jacobian when set, otherwise from column-by-column
/// finite differences of \p F.
NewtonResult solveNewtonSystem(
    const std::function<std::vector<double>(const std::vector<double> &)> &F,
    std::vector<double> Initial, NewtonOptions Options = NewtonOptions());

/// Tolerant floating-point equality: |A - B| <= AbsTol + RelTol*max(|A|,|B|).
///
/// This is the sanctioned way to compare physics values; `==` on computed
/// doubles is flagged by tools/skatlint (rule float-equality).
inline bool approxEqual(double A, double B, double RelTol = 1e-9,
                        double AbsTol = 1e-12) {
  double DiffAbs = A > B ? A - B : B - A;
  double LargerAbs = (A < 0 ? -A : A) > (B < 0 ? -B : B) ? (A < 0 ? -A : A)
                                                         : (B < 0 ? -B : B);
  return DiffAbs <= AbsTol + RelTol * LargerAbs;
}

/// True when \p X is within \p AbsTol of zero.
inline bool nearZero(double X, double AbsTol = 1e-12) {
  return (X < 0 ? -X : X) <= AbsTol;
}

/// Euclidean norm of \p X.
double vectorNorm(const std::vector<double> &X);

/// Maximum absolute entry of \p X; zero for empty vectors.
double vectorMaxAbs(const std::vector<double> &X);

} // namespace rcs

#endif // RCS_SUPPORT_NUMERICS_H
