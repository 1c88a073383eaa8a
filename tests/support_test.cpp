//===- tests/support_test.cpp - Unit tests for rcs_support ------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Csv.h"
#include "support/Interp.h"
#include "support/Numerics.h"
#include "support/Parallel.h"
#include "support/Random.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

using namespace rcs;

//===----------------------------------------------------------------------===//
// Status / Expected
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsOk) {
  Status S;
  EXPECT_TRUE(S.isOk());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S.message(), "");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status S = Status::error("pump exploded");
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.message(), "pump exploded");
}

TEST(ExpectedTest, ValueRoundTrip) {
  Expected<int> E(42);
  ASSERT_TRUE(E.hasValue());
  EXPECT_EQ(*E, 42);
  EXPECT_EQ(E.valueOr(7), 42);
}

TEST(ExpectedTest, ErrorRoundTrip) {
  Expected<int> E = Expected<int>::error("no solution");
  ASSERT_FALSE(E.hasValue());
  EXPECT_EQ(E.message(), "no solution");
  EXPECT_EQ(E.valueOr(7), 7);
}

TEST(ExpectedTest, ArrowOperator) {
  Expected<std::string> E(std::string("abc"));
  EXPECT_EQ(E->size(), 3u);
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(StringUtilsTest, SplitPreservesEmptyFields) {
  auto Parts = splitString("a,,b,", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtilsTest, SplitNoSeparator) {
  auto Parts = splitString("abc", ',');
  ASSERT_EQ(Parts.size(), 1u);
  EXPECT_EQ(Parts[0], "abc");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trimString("  hi \t\n"), "hi");
  EXPECT_EQ(trimString(""), "");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString("x"), "x");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"solo"}, ","), "solo");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("loop-3", "loop"));
  EXPECT_FALSE(startsWith("lo", "loop"));
}

TEST(StringUtilsTest, ToLower) { EXPECT_EQ(toLower("FPGA Ku095"), "fpga ku095"); }

TEST(StringUtilsTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(formatDouble(3.0), "3");
  EXPECT_EQ(formatDouble(3.25, 3), "3.25");
  EXPECT_EQ(formatDouble(0.5, 1), "0.5");
}

//===----------------------------------------------------------------------===//
// Units
//===----------------------------------------------------------------------===//

TEST(UnitsTest, TemperatureConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(units::celsiusToKelvin(25.0), 298.15);
  EXPECT_DOUBLE_EQ(units::kelvinToCelsius(units::celsiusToKelvin(55.0)),
                   55.0);
}

TEST(UnitsTest, FlowConversions) {
  EXPECT_NEAR(units::litersPerMinuteToM3PerS(60.0), 1e-3, 1e-12);
  EXPECT_NEAR(units::m3PerSToLitersPerMinute(1e-3), 60.0, 1e-9);
  EXPECT_NEAR(units::m3PerSToM3PerMinute(1.0 / 60.0), 1.0, 1e-12);
}

TEST(UnitsTest, PressureAndLength) {
  EXPECT_DOUBLE_EQ(units::barToPa(1.0), 1e5);
  EXPECT_DOUBLE_EQ(units::paToBar(2.5e5), 2.5);
  EXPECT_DOUBLE_EQ(units::mmToM(42.5), 0.0425);
}

//===----------------------------------------------------------------------===//
// RandomEngine
//===----------------------------------------------------------------------===//

TEST(RandomTest, Deterministic) {
  RandomEngine A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  RandomEngine A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RandomTest, UniformInUnitInterval) {
  RandomEngine R(7);
  for (int I = 0; I != 10000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RandomTest, UniformMeanNearHalf) {
  RandomEngine R(11);
  double Sum = 0.0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.01);
}

TEST(RandomTest, UniformIntRespectsBound) {
  RandomEngine R(5);
  for (int I = 0; I != 10000; ++I)
    EXPECT_LT(R.uniformInt(17), 17u);
}

TEST(RandomTest, NormalMoments) {
  RandomEngine R(13);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 200000;
  for (int I = 0; I != N; ++I) {
    double X = R.normal(5.0, 2.0);
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 5.0, 0.05);
  EXPECT_NEAR(Var, 4.0, 0.15);
}

TEST(RandomTest, ExponentialMean) {
  RandomEngine R(17);
  double Sum = 0.0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += R.exponential(0.5);
  EXPECT_NEAR(Sum / N, 2.0, 0.1);
}

TEST(RandomTest, BernoulliRate) {
  RandomEngine R(19);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Hits += R.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.01);
}

//===----------------------------------------------------------------------===//
// Numerics: dense LU
//===----------------------------------------------------------------------===//

TEST(NumericsTest, SolveDense2x2) {
  Matrix A(2, 2);
  A.at(0, 0) = 2.0;
  A.at(0, 1) = 1.0;
  A.at(1, 0) = 1.0;
  A.at(1, 1) = 3.0;
  auto X = solveDense(A, {5.0, 10.0});
  ASSERT_TRUE(X.hasValue());
  EXPECT_NEAR((*X)[0], 1.0, 1e-12);
  EXPECT_NEAR((*X)[1], 3.0, 1e-12);
}

TEST(NumericsTest, SolveDenseNeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix A(2, 2);
  A.at(0, 0) = 0.0;
  A.at(0, 1) = 1.0;
  A.at(1, 0) = 1.0;
  A.at(1, 1) = 0.0;
  auto X = solveDense(A, {2.0, 3.0});
  ASSERT_TRUE(X.hasValue());
  EXPECT_NEAR((*X)[0], 3.0, 1e-12);
  EXPECT_NEAR((*X)[1], 2.0, 1e-12);
}

TEST(NumericsTest, SolveDenseSingularFails) {
  Matrix A(2, 2);
  A.at(0, 0) = 1.0;
  A.at(0, 1) = 2.0;
  A.at(1, 0) = 2.0;
  A.at(1, 1) = 4.0;
  auto X = solveDense(A, {1.0, 2.0});
  EXPECT_FALSE(X.hasValue());
}

TEST(NumericsTest, SolveDenseRandomRoundTrip) {
  RandomEngine R(23);
  const size_t N = 25;
  Matrix A(N, N);
  std::vector<double> XTrue(N);
  for (size_t I = 0; I != N; ++I) {
    XTrue[I] = R.uniform(-3, 3);
    for (size_t J = 0; J != N; ++J)
      A.at(I, J) = R.uniform(-1, 1);
    A.at(I, I) += 5.0; // Diagonally dominant for conditioning.
  }
  auto B = A.apply(XTrue);
  auto X = solveDense(A, B);
  ASSERT_TRUE(X.hasValue());
  for (size_t I = 0; I != N; ++I)
    EXPECT_NEAR((*X)[I], XTrue[I], 1e-9);
}

TEST(NumericsTest, MatrixIdentityApply) {
  Matrix I = Matrix::identity(3);
  auto Y = I.apply({1.0, 2.0, 3.0});
  EXPECT_EQ(Y, (std::vector<double>{1.0, 2.0, 3.0}));
}

//===----------------------------------------------------------------------===//
// Numerics: tridiagonal
//===----------------------------------------------------------------------===//

TEST(NumericsTest, TridiagonalMatchesDense) {
  // -1 2 -1 Poisson-like system.
  const size_t N = 6;
  std::vector<double> Lower(N - 1, -1.0), Diag(N, 2.0), Upper(N - 1, -1.0);
  std::vector<double> Rhs(N, 1.0);
  auto XTri = solveTridiagonal(Lower, Diag, Upper, Rhs);
  ASSERT_TRUE(XTri.hasValue());

  Matrix A(N, N);
  for (size_t I = 0; I != N; ++I) {
    A.at(I, I) = 2.0;
    if (I > 0)
      A.at(I, I - 1) = -1.0;
    if (I + 1 < N)
      A.at(I, I + 1) = -1.0;
  }
  auto XDense = solveDense(A, Rhs);
  ASSERT_TRUE(XDense.hasValue());
  for (size_t I = 0; I != N; ++I)
    EXPECT_NEAR((*XTri)[I], (*XDense)[I], 1e-10);
}

//===----------------------------------------------------------------------===//
// Numerics: root finding
//===----------------------------------------------------------------------===//

TEST(NumericsTest, BrentFindsCosineRoot) {
  auto Root = findRootBrent([](double X) { return std::cos(X); }, 0.0, 3.0);
  ASSERT_TRUE(Root.hasValue());
  EXPECT_NEAR(*Root, M_PI / 2.0, 1e-9);
}

TEST(NumericsTest, BrentRejectsUnbracketed) {
  auto Root =
      findRootBrent([](double X) { return X * X + 1.0; }, -1.0, 1.0);
  EXPECT_FALSE(Root.hasValue());
}

TEST(NumericsTest, BrentEndpointRoot) {
  auto Root = findRootBrent([](double X) { return X; }, 0.0, 1.0);
  ASSERT_TRUE(Root.hasValue());
  EXPECT_DOUBLE_EQ(*Root, 0.0);
}

TEST(NumericsTest, BrentFromKnownEndValuesWalksTheSameIterates) {
  // Handing Brent the end values it would evaluate itself saves exactly
  // those two calls and lands on the same bits.
  std::vector<double> Plain, Given;
  auto Cubic = [](std::vector<double> &Seen) {
    return [&Seen](double X) {
      Seen.push_back(X);
      return X * X * X - 2.0 * X - 5.0;
    };
  };
  auto Root = findRootBrent(Cubic(Plain), 0.0, 4.0);
  std::vector<double> Ends;
  auto End = Cubic(Ends);
  double LowValue = End(0.0), HighValue = End(4.0);
  auto Reused = findRootBrent(Cubic(Given), 0.0, 4.0, LowValue, HighValue);
  ASSERT_TRUE(Root.hasValue());
  ASSERT_TRUE(Reused.hasValue());
  EXPECT_EQ(*Reused, *Root);
  ASSERT_EQ(Given.size() + 2, Plain.size());
  EXPECT_EQ(std::vector<double>(Plain.begin() + 2, Plain.end()), Given);
}

TEST(NumericsTest, NewtonScalarQuadratic) {
  auto Root = findRootNewton([](double X) { return X * X - 2.0; }, 1.0, 0.0,
                             2.0);
  ASSERT_TRUE(Root.hasValue());
  EXPECT_NEAR(*Root, std::sqrt(2.0), 1e-8);
}

TEST(NumericsTest, NewtonSystemSolvesNonlinear) {
  // x^2 + y = 3, x + y^2 = 5 has a solution near (1.1, 1.77)... verify the
  // residual instead of a closed form.
  auto F = [](const std::vector<double> &X) {
    return std::vector<double>{X[0] * X[0] + X[1] - 3.0,
                               X[0] + X[1] * X[1] - 5.0};
  };
  NewtonResult R = solveNewtonSystem(F, {1.0, 1.0});
  ASSERT_TRUE(R.Converged);
  auto Res = F(R.Solution);
  EXPECT_NEAR(Res[0], 0.0, 1e-8);
  EXPECT_NEAR(Res[1], 0.0, 1e-8);
}

TEST(NumericsTest, NewtonSystemLinearOneStep) {
  auto F = [](const std::vector<double> &X) {
    return std::vector<double>{2.0 * X[0] - 4.0};
  };
  NewtonResult R = solveNewtonSystem(F, {0.0});
  ASSERT_TRUE(R.Converged);
  EXPECT_NEAR(R.Solution[0], 2.0, 1e-8);
  EXPECT_LE(R.Iterations, 3);
}

TEST(NumericsTest, VectorHelpers) {
  EXPECT_DOUBLE_EQ(vectorNorm({3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(vectorMaxAbs({-7.0, 2.0}), 7.0);
  EXPECT_DOUBLE_EQ(vectorMaxAbs({}), 0.0);
}

//===----------------------------------------------------------------------===//
// LinearTable
//===----------------------------------------------------------------------===//

TEST(InterpTest, EvaluatesMidpoints) {
  LinearTable T{{0.0, 0.0}, {1.0, 10.0}, {2.0, 30.0}};
  EXPECT_DOUBLE_EQ(T.evaluate(0.5), 5.0);
  EXPECT_DOUBLE_EQ(T.evaluate(1.5), 20.0);
  EXPECT_DOUBLE_EQ(T.evaluate(1.0), 10.0);
}

TEST(InterpTest, ClampsOutsideRangeByDefault) {
  LinearTable T{{0.0, 0.0}, {1.0, 10.0}};
  EXPECT_DOUBLE_EQ(T.evaluate(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(T.evaluate(5.0), 10.0);
}

TEST(InterpTest, ExtrapolatesWhenEnabled) {
  LinearTable T{{0.0, 0.0}, {1.0, 10.0}};
  T.setExtrapolate(true);
  EXPECT_DOUBLE_EQ(T.evaluate(2.0), 20.0);
  EXPECT_DOUBLE_EQ(T.evaluate(-1.0), -10.0);
}

TEST(InterpTest, Derivative) {
  LinearTable T{{0.0, 0.0}, {1.0, 10.0}, {2.0, 30.0}};
  EXPECT_DOUBLE_EQ(T.derivative(0.5), 10.0);
  EXPECT_DOUBLE_EQ(T.derivative(1.5), 20.0);
}

TEST(InterpTest, InverseIncreasing) {
  LinearTable T{{0.0, 0.0}, {1.0, 10.0}, {2.0, 30.0}};
  EXPECT_DOUBLE_EQ(T.inverse(5.0), 0.5);
  EXPECT_DOUBLE_EQ(T.inverse(20.0), 1.5);
  EXPECT_DOUBLE_EQ(T.inverse(-1.0), 0.0);  // Clamped.
  EXPECT_DOUBLE_EQ(T.inverse(100.0), 2.0); // Clamped.
}

TEST(InterpTest, InverseDecreasing) {
  LinearTable T{{0.0, 30.0}, {1.0, 10.0}, {2.0, 0.0}};
  EXPECT_DOUBLE_EQ(T.inverse(20.0), 0.5);
  EXPECT_DOUBLE_EQ(T.inverse(5.0), 1.5);
}

TEST(InterpTest, VectorConstructor) {
  LinearTable T(std::vector<double>{0.0, 2.0}, std::vector<double>{1.0, 5.0});
  EXPECT_DOUBLE_EQ(T.evaluate(1.0), 3.0);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_DOUBLE_EQ(T.minX(), 0.0);
  EXPECT_DOUBLE_EQ(T.maxX(), 2.0);
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersAlignedColumns) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(Out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TableTest, SeparatorRows) {
  Table T({"x"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  std::string Out = T.render();
  // Header separator plus the explicit one.
  size_t First = Out.find("|---");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("|---", First + 1), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CsvWriter
//===----------------------------------------------------------------------===//

TEST(CsvTest, RendersHeaderAndRows) {
  CsvWriter W({"t", "temp"});
  W.addNumericRow({0.0, 25.5});
  W.addRow({"1", "note"});
  std::string Out = W.render();
  EXPECT_EQ(Out, "t,temp\n0,25.5\n1,note\n");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  CsvWriter W({"a"});
  W.addRow({"x,y"});
  W.addRow({"say \"hi\""});
  std::string Out = W.render();
  EXPECT_NE(Out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvTest, WritesFile) {
  CsvWriter W({"v"});
  W.addNumericRow({1.25});
  std::string Path = testing::TempDir() + "/skatsim_csv_test.csv";
  ASSERT_TRUE(W.writeFile(Path).isOk());
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_EQ(std::string(Buf, N), "v\n1.25\n");
}

//===----------------------------------------------------------------------===//
// RandomEngine streams (the seed+stream scheme sweeps rely on)
//===----------------------------------------------------------------------===//

TEST(RandomStreamTest, EqualSeedStreamPairsAgree) {
  RandomEngine A(99, 3), B(99, 3);
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomStreamTest, StreamsAreDisjointFromEachOtherAndTheBase) {
  RandomEngine Stream3(99, 3), Stream4(99, 4), Base(99), Stream0(99, 0);
  bool DiffersFromSibling = false;
  bool DiffersFromBase = false;
  bool Stream0DiffersFromBase = false;
  RandomEngine Probe(99, 3);
  RandomEngine BaseProbe(99);
  for (int I = 0; I != 64; ++I) {
    uint64_t V = Probe.next();
    DiffersFromSibling = DiffersFromSibling || V != Stream4.next();
    DiffersFromBase = DiffersFromBase || V != Base.next();
    Stream0DiffersFromBase =
        Stream0DiffersFromBase || Stream0.next() != BaseProbe.next();
  }
  EXPECT_TRUE(DiffersFromSibling);
  EXPECT_TRUE(DiffersFromBase);
  // Stream 0 is deliberately NOT the single-seed sequence.
  EXPECT_TRUE(Stream0DiffersFromBase);
}

TEST(RandomStreamTest, WeibullShapeOneIsExponential) {
  // Shape 1 reduces to an exponential with mean == scale.
  RandomEngine R(31);
  const int NumSamples = 20000;
  double Sum = 0.0;
  for (int I = 0; I != NumSamples; ++I) {
    double Sample = R.weibullSample(1.0, 5.0);
    ASSERT_GE(Sample, 0.0);
    Sum += Sample;
  }
  EXPECT_NEAR(Sum / NumSamples, 5.0, 0.15);
}

TEST(RandomStreamTest, WeibullWearOutConcentratesNearScale) {
  // Large shape: the distribution tightens around the scale parameter.
  RandomEngine R(37);
  const int NumSamples = 5000;
  int Near = 0;
  for (int I = 0; I != NumSamples; ++I) {
    double Sample = R.weibullSample(8.0, 10.0);
    Near += Sample > 7.0 && Sample < 13.0;
  }
  EXPECT_GT(Near, NumSamples * 9 / 10);
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelForTest, VisitsEveryItemExactlyOnce) {
  std::vector<size_t> Slot(257, static_cast<size_t>(-1));
  parallelFor(4, Slot.size(), [&Slot](size_t Item) { Slot[Item] = Item * Item; });
  for (size_t I = 0; I != Slot.size(); ++I)
    EXPECT_EQ(Slot[I], I * I);
}

TEST(ParallelForTest, SerialAndEmptyLoopsWork) {
  int Calls = 0;
  parallelFor(1, 5, [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 5);
  parallelFor(8, 0, [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 5);
}

TEST(ParallelForTest, ClampThreadCountBounds) {
  EXPECT_EQ(clampThreadCount(1), 1);
  EXPECT_GE(clampThreadCount(0), 1);  // 0 = all hardware threads.
  EXPECT_GE(clampThreadCount(-4), 1); // Negative likewise.
  EXPECT_LE(clampThreadCount(1 << 20),
            static_cast<int>(std::thread::hardware_concurrency()));
}
