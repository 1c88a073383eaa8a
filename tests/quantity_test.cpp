//===- tests/quantity_test.cpp - Dimensional-analysis tests -------------------===//
//
// Part of skatsim. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runtime and compile-time coverage for support/Quantity.h: dimension
// algebra, affine temperature semantics, and SFINAE proofs that
// ill-dimensioned expressions do not participate in overload resolution.
// The companion negative-compile targets (tests/quantity_misuse.cpp driven
// by CTest WILL_FAIL builds) prove the same misuses are hard errors in
// ordinary code.
//
//===----------------------------------------------------------------------===//

#include "support/Quantity.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace rcs;
using namespace rcs::units;

namespace {

//===----------------------------------------------------------------------===//
// SFINAE detection: ill-dimensioned expressions must not resolve.
//===----------------------------------------------------------------------===//

template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename From, typename To>
inline constexpr bool Convertible = std::is_convertible_v<From, To>;

// Same-dimension addition works; cross-dimension addition does not exist.
static_assert(CanAdd<Watts, Watts>::value);
static_assert(!CanAdd<Watts, Pascal>::value);
static_assert(!CanAdd<Celsius, Pascal>::value);
static_assert(!CanAdd<TempDelta, Pascal>::value);

// Absolute temperatures are points: point + point is meaningless.
static_assert(!CanAdd<Celsius, Celsius>::value);
static_assert(!CanAdd<Kelvin, Kelvin>::value);
static_assert(!CanAdd<Celsius, Kelvin>::value);
// ...but point + delta and delta + point shift the point.
static_assert(CanAdd<Celsius, TempDelta>::value);
static_assert(CanAdd<TempDelta, Celsius>::value);
static_assert(CanAdd<Kelvin, TempDelta>::value);

// The scales never convert implicitly, in either direction, and neither
// leaks to/from raw double.
static_assert(!Convertible<Celsius, Kelvin>);
static_assert(!Convertible<Kelvin, Celsius>);
static_assert(!Convertible<double, Celsius>);
static_assert(!Convertible<Celsius, double>);
static_assert(!Convertible<double, Watts>);
static_assert(!Convertible<Watts, double>);
static_assert(!Convertible<Watts, Joules>);

TEST(QuantityTest, DimensionAlgebra) {
  Watts P = WattsPerKelvin(12.0) * TempDelta(5.0);
  EXPECT_DOUBLE_EQ(P.value(), 60.0);

  Joules E = P * Seconds(10.0);
  EXPECT_DOUBLE_EQ(E.value(), 600.0);

  KgPerS MassFlow = KgPerM3(850.0) * M3PerS(0.002);
  EXPECT_DOUBLE_EQ(MassFlow.value(), 1.7);

  KelvinPerWatt R = 1.0 / WattsPerKelvin(4.0);
  EXPECT_DOUBLE_EQ(R.value(), 0.25);

  Scalar Ratio = Watts(30.0) / Watts(120.0);
  EXPECT_DOUBLE_EQ(Ratio.value(), 0.25);
}

TEST(QuantityTest, AffineTemperatureSemantics) {
  Celsius Inlet(40.0);
  Celsius Outlet = Inlet + TempDelta(12.5);
  EXPECT_DOUBLE_EQ(Outlet.value(), 52.5);

  TempDelta Rise = Outlet - Inlet;
  EXPECT_DOUBLE_EQ(Rise.value(), 12.5);

  // Deltas multiply into quantity algebra; points cannot.
  Watts Duty = WattsPerKelvin(800.0) * Rise;
  EXPECT_DOUBLE_EQ(Duty.value(), 10000.0);

  EXPECT_LT(Inlet, Outlet);
  EXPECT_GT(Kelvin(300.0), Kelvin(250.0));
}

TEST(QuantityTest, ScaleCrossings) {
  Kelvin K = toKelvin(Celsius(26.85));
  EXPECT_NEAR(K.value(), 300.0, 1e-9);
  Celsius C = toCelsius(Kelvin(273.15));
  EXPECT_DOUBLE_EQ(C.value(), 0.0);

  // A Celsius delta and a Kelvin delta are the same delta.
  TempDelta D1 = Celsius(60.0) - Celsius(40.0);
  TempDelta D2 = toKelvin(Celsius(60.0)) - toKelvin(Celsius(40.0));
  EXPECT_DOUBLE_EQ(D1.value(), D2.value());
}

TEST(QuantityTest, Literals) {
  using namespace rcs::units::literals;
  EXPECT_DOUBLE_EQ((40.0_degC).value(), 40.0);
  EXPECT_DOUBLE_EQ((300_K).value(), 300.0);
  EXPECT_DOUBLE_EQ((5.5_dK).value(), 5.5);
  EXPECT_DOUBLE_EQ((250_W).value(), 250.0);
  EXPECT_DOUBLE_EQ((1.5_Pa).value(), 1.5);
}

TEST(QuantityTest, FlowHelpers) {
  M3PerS Flow = flowFromLitersPerMinute(60.0);
  EXPECT_DOUBLE_EQ(Flow.value(), 0.001);
}

TEST(QuantityTest, ZeroOverheadLayout) {
  // The acceptance bar for the migration: a Quantity is exactly a double.
  EXPECT_EQ(sizeof(Watts), sizeof(double));
  EXPECT_EQ(sizeof(Celsius), sizeof(double));
  EXPECT_EQ(sizeof(TempDelta), sizeof(double));
  EXPECT_TRUE(std::is_trivially_copyable_v<M3PerS>);
  EXPECT_TRUE(std::is_trivially_destructible_v<Celsius>);
}

} // namespace
