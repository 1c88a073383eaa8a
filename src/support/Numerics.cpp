//===- support/Numerics.cpp - Small numeric kernels ------------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Numerics.h"

#include <algorithm>
#include <cmath>

using namespace rcs;

Matrix Matrix::identity(size_t N) {
  Matrix M(N, N);
  for (size_t I = 0; I != N; ++I)
    M.at(I, I) = 1.0;
  return M;
}

std::vector<double> Matrix::apply(const std::vector<double> &X) const {
  assert(X.size() == NumCols && "dimension mismatch in Matrix::apply");
  std::vector<double> Y(NumRows, 0.0);
  for (size_t Row = 0; Row != NumRows; ++Row) {
    double Sum = 0.0;
    for (size_t Col = 0; Col != NumCols; ++Col)
      Sum += at(Row, Col) * X[Col];
    Y[Row] = Sum;
  }
  return Y;
}

Expected<std::vector<double>> rcs::solveDense(Matrix A,
                                              std::vector<double> B) {
  assert(A.rows() == A.cols() && "solveDense needs a square matrix");
  assert(A.rows() == B.size() && "dimension mismatch in solveDense");
  const size_t N = A.rows();
  for (size_t Col = 0; Col != N; ++Col) {
    // Partial pivoting: pick the largest magnitude entry in this column.
    size_t Pivot = Col;
    double Best = std::fabs(A.at(Col, Col));
    for (size_t Row = Col + 1; Row != N; ++Row) {
      double Candidate = std::fabs(A.at(Row, Col));
      if (Candidate > Best) {
        Best = Candidate;
        Pivot = Row;
      }
    }
    if (Best < 1e-300)
      return Expected<std::vector<double>>::error(
          "singular matrix in solveDense");
    if (Pivot != Col) {
      for (size_t K = 0; K != N; ++K)
        std::swap(A.at(Col, K), A.at(Pivot, K));
      std::swap(B[Col], B[Pivot]);
    }
    double Diag = A.at(Col, Col);
    for (size_t Row = Col + 1; Row != N; ++Row) {
      double Factor = A.at(Row, Col) / Diag;
      // skatlint:ignore(float-equality) -- exact zero skips work only; any
      // nonzero factor, however small, must still eliminate.
      if (Factor == 0.0)
        continue;
      A.at(Row, Col) = 0.0;
      for (size_t K = Col + 1; K != N; ++K)
        A.at(Row, K) -= Factor * A.at(Col, K);
      B[Row] -= Factor * B[Col];
    }
  }

  std::vector<double> X(N, 0.0);
  for (size_t RowPlus1 = N; RowPlus1 != 0; --RowPlus1) {
    size_t Row = RowPlus1 - 1;
    double Sum = B[Row];
    for (size_t K = Row + 1; K != N; ++K)
      Sum -= A.at(Row, K) * X[K];
    X[Row] = Sum / A.at(Row, Row);
  }
  return X;
}

Status LuFactorization::factor(Matrix A) {
  assert(A.rows() == A.cols() && "LuFactorization needs a square matrix");
  const size_t N = A.rows();
  Valid = false;
  PivotRow.assign(N, 0);

  // Identical elimination sequence to solveDense, with two bookkeeping
  // differences: the pivot row per column is recorded, and the multiplier
  // is stored below the diagonal instead of being zeroed.
  for (size_t Col = 0; Col != N; ++Col) {
    size_t Pivot = Col;
    double Best = std::fabs(A.at(Col, Col));
    for (size_t Row = Col + 1; Row != N; ++Row) {
      double Candidate = std::fabs(A.at(Row, Col));
      if (Candidate > Best) {
        Best = Candidate;
        Pivot = Row;
      }
    }
    if (Best < 1e-300)
      return Status::error("singular matrix in solveDense");
    PivotRow[Col] = Pivot;
    if (Pivot != Col)
      for (size_t K = 0; K != N; ++K)
        std::swap(A.at(Col, K), A.at(Pivot, K));
    double Diag = A.at(Col, Col);
    for (size_t Row = Col + 1; Row != N; ++Row) {
      double Factor = A.at(Row, Col) / Diag;
      A.at(Row, Col) = Factor;
      // skatlint:ignore(float-equality) -- exact zero skips work only,
      // mirroring solveDense; any nonzero factor must still eliminate.
      if (Factor == 0.0)
        continue;
      for (size_t K = Col + 1; K != N; ++K)
        A.at(Row, K) -= Factor * A.at(Col, K);
    }
  }
  // Pack the multipliers column-major so solve()'s forward pass reads
  // them with unit stride instead of striding down the row-major matrix.
  LowerPacked.clear();
  LowerPacked.reserve(N * (N - 1) / 2);
  for (size_t Col = 0; Col != N; ++Col)
    for (size_t Row = Col + 1; Row != N; ++Row)
      LowerPacked.push_back(A.at(Row, Col));
  Lu = std::move(A);
  Valid = true;
  return Status::ok();
}

std::vector<double> LuFactorization::solve(std::vector<double> B) const {
  assert(Valid && "solve() on an invalid LuFactorization");
  const size_t N = Lu.rows();
  assert(B.size() == N && "dimension mismatch in LuFactorization::solve");

  // Forward pass: replay the row swaps and eliminations in the exact
  // order solveDense applied them to its right-hand side, so each B entry
  // sees the same sequence of operations (bit-identical results).
  const double *Packed = LowerPacked.data();
  for (size_t Col = 0; Col != N; ++Col) {
    if (PivotRow[Col] != Col)
      std::swap(B[Col], B[PivotRow[Col]]);
    double Bc = B[Col];
    for (size_t Row = Col + 1; Row != N; ++Row) {
      double Factor = *Packed++;
      // skatlint:ignore(float-equality) -- replays solveDense's exact-zero
      // skip so the operation sequence matches bit for bit.
      if (Factor == 0.0)
        continue;
      B[Row] -= Factor * Bc;
    }
  }

  std::vector<double> X(N, 0.0);
  for (size_t RowPlus1 = N; RowPlus1 != 0; --RowPlus1) {
    size_t Row = RowPlus1 - 1;
    double Sum = B[Row];
    for (size_t K = Row + 1; K != N; ++K)
      Sum -= Lu.at(Row, K) * X[K];
    X[Row] = Sum / Lu.at(Row, Row);
  }
  return X;
}

Expected<std::vector<double>>
rcs::solveTridiagonal(std::vector<double> Lower, std::vector<double> Diag,
                      std::vector<double> Upper, std::vector<double> Rhs) {
  const size_t N = Diag.size();
  assert(Rhs.size() == N && "tridiagonal rhs size mismatch");
  assert(Lower.size() + 1 == N && Upper.size() + 1 == N &&
         "tridiagonal band size mismatch");
  for (size_t I = 1; I != N; ++I) {
    if (std::fabs(Diag[I - 1]) < 1e-300)
      return Expected<std::vector<double>>::error(
          "zero pivot in solveTridiagonal");
    double W = Lower[I - 1] / Diag[I - 1];
    Diag[I] -= W * Upper[I - 1];
    Rhs[I] -= W * Rhs[I - 1];
  }
  if (std::fabs(Diag[N - 1]) < 1e-300)
    return Expected<std::vector<double>>::error(
        "zero pivot in solveTridiagonal");
  std::vector<double> X(N, 0.0);
  X[N - 1] = Rhs[N - 1] / Diag[N - 1];
  for (size_t IPlus1 = N - 1; IPlus1 != 0; --IPlus1) {
    size_t I = IPlus1 - 1;
    X[I] = (Rhs[I] - Upper[I] * X[I + 1]) / Diag[I];
  }
  return X;
}

Expected<double> rcs::findRootBrent(const std::function<double(double)> &F,
                                    double Low, double High,
                                    RootFindOptions Options) {
  double LowValue = F(Low);
  double HighValue = F(High);
  return findRootBrent(F, Low, High, LowValue, HighValue, Options);
}

Expected<double> rcs::findRootBrent(const std::function<double(double)> &F,
                                    double Low, double High, double LowValue,
                                    double HighValue, RootFindOptions Options) {
  double A = Low, B = High;
  double Fa = LowValue, Fb = HighValue;
  // skatlint:ignore(float-equality) -- an exact root at a bracket end is
  // the documented early-out; approximate zeros go through the iteration.
  if (Fa == 0.0)
    return A;
  // skatlint:ignore(float-equality) -- see above
  if (Fb == 0.0)
    return B;
  if (Fa * Fb > 0.0)
    return Expected<double>::error("findRootBrent: root not bracketed");

  double C = A, Fc = Fa;
  double D = B - A, E = D;
  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    if (std::fabs(Fc) < std::fabs(Fb)) {
      A = B;
      B = C;
      C = A;
      Fa = Fb;
      Fb = Fc;
      Fc = Fa;
    }
    double Tol = 2.0 * 1e-16 * std::fabs(B) + 0.5 * Options.AbsTolerance;
    double Mid = 0.5 * (C - B);
    // skatlint:ignore(float-equality) -- Brent terminates on an exact zero
    // residual; the tolerance test on Mid handles the approximate case.
    if (std::fabs(Mid) <= Tol || Fb == 0.0)
      return B;
    if (std::fabs(E) >= Tol && std::fabs(Fa) > std::fabs(Fb)) {
      // Attempt inverse quadratic interpolation / secant.
      double S = Fb / Fa;
      double P, Q;
      if (A == C) {
        P = 2.0 * Mid * S;
        Q = 1.0 - S;
      } else {
        double QQ = Fa / Fc;
        double R = Fb / Fc;
        P = S * (2.0 * Mid * QQ * (QQ - R) - (B - A) * (R - 1.0));
        Q = (QQ - 1.0) * (R - 1.0) * (S - 1.0);
      }
      if (P > 0.0)
        Q = -Q;
      P = std::fabs(P);
      if (2.0 * P < std::min(3.0 * Mid * Q - std::fabs(Tol * Q),
                             std::fabs(E * Q))) {
        E = D;
        D = P / Q;
      } else {
        D = Mid;
        E = D;
      }
    } else {
      D = Mid;
      E = D;
    }
    A = B;
    Fa = Fb;
    B += (std::fabs(D) > Tol) ? D : (Mid > 0 ? Tol : -Tol);
    Fb = F(B);
    if ((Fb > 0.0) == (Fc > 0.0)) {
      C = A;
      Fc = Fa;
      D = B - A;
      E = D;
    }
  }
  return B;
}

Expected<double> rcs::findRootNewton(const std::function<double(double)> &F,
                                     double Initial, double Low, double High,
                                     RootFindOptions Options) {
  double X = Initial;
  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    double Fx = F(X);
    if (std::fabs(Fx) < Options.AbsTolerance)
      return X;
    double H = std::max(1e-8, 1e-7 * std::fabs(X));
    double Deriv = (F(X + H) - Fx) / H;
    if (std::fabs(Deriv) < 1e-300)
      break;
    double Next = X - Fx / Deriv;
    if (Next < Low || Next > High)
      break;
    if (std::fabs(Next - X) < Options.AbsTolerance)
      return Next;
    X = Next;
  }
  return findRootBrent(F, Low, High, Options);
}

double rcs::vectorNorm(const std::vector<double> &X) {
  double Sum = 0.0;
  for (double V : X)
    Sum += V * V;
  return std::sqrt(Sum);
}

double rcs::vectorMaxAbs(const std::vector<double> &X) {
  double Best = 0.0;
  for (double V : X)
    Best = std::max(Best, std::fabs(V));
  return Best;
}

NewtonResult rcs::solveNewtonSystem(
    const std::function<std::vector<double>(const std::vector<double> &)> &F,
    std::vector<double> Initial, NewtonOptions Options) {
  NewtonResult Result;
  std::vector<double> X = std::move(Initial);
  const size_t N = X.size();
  std::vector<double> Fx = F(X);
  assert(Fx.size() == N && "residual dimension must match unknowns");
  double Norm = vectorNorm(Fx);
  if (Options.Observer)
    Options.Observer({0, Norm, vectorMaxAbs(Fx), 0.0});

  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    if (Norm < Options.ResidualTolerance) {
      Result.Converged = true;
      break;
    }
    Matrix Jacobian;
    if (Options.Jacobian) {
      // Analytic Jacobian. The most recent F evaluation was at this X
      // (the initial evaluation, or the accepted line-search candidate),
      // so the callback may reuse state cached during it.
      Jacobian = Options.Jacobian(X, Fx);
      assert(Jacobian.rows() == N && Jacobian.cols() == N &&
             "analytic Jacobian dimension mismatch");
    } else {
      // Finite-difference Jacobian, column by column.
      Jacobian = Matrix(N, N);
      for (size_t Col = 0; Col != N; ++Col) {
        double Save = X[Col];
        double H = Options.JacobianRelative
                       ? Options.JacobianEpsilon * std::max(1.0,
                                                            std::fabs(Save))
                       : Options.JacobianEpsilon;
        X[Col] = Save + H;
        std::vector<double> FPerturbed = F(X);
        X[Col] = Save;
        for (size_t Row = 0; Row != N; ++Row)
          Jacobian.at(Row, Col) = (FPerturbed[Row] - Fx[Row]) / H;
      }
    }
    std::vector<double> NegF(N);
    for (size_t I = 0; I != N; ++I)
      NegF[I] = -Fx[I];
    Expected<std::vector<double>> Step = solveDense(Jacobian, NegF);
    if (!Step)
      break;

    // Damped line search: halve the step until the residual shrinks.
    double Lambda = 1.0;
    bool Accepted = false;
    for (int Back = 0; Back != Options.MaxBacktracks; ++Back) {
      std::vector<double> Candidate(N);
      for (size_t I = 0; I != N; ++I)
        Candidate[I] = X[I] + Lambda * (*Step)[I];
      std::vector<double> FCandidate = F(Candidate);
      double CandidateNorm = vectorNorm(FCandidate);
      if (CandidateNorm < Norm || CandidateNorm < Options.ResidualTolerance) {
        X = std::move(Candidate);
        Fx = std::move(FCandidate);
        Norm = CandidateNorm;
        Accepted = true;
        break;
      }
      Lambda *= 0.5;
    }
    ++Result.Iterations;
    if (!Accepted)
      break;
    if (Options.Observer)
      Options.Observer({Result.Iterations, Norm, vectorMaxAbs(Fx),
                        Lambda});
    if (Lambda * vectorMaxAbs(*Step) < Options.StepTolerance) {
      Result.Converged = Norm < 1e3 * Options.ResidualTolerance;
      break;
    }
  }
  Result.Converged = Result.Converged || Norm < Options.ResidualTolerance;
  Result.Solution = std::move(X);
  Result.ResidualNorm = Norm;
  return Result;
}
