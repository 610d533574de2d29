// Tests for the Taylor-mode interval arithmetic: coefficients of known
// closed-form series plus sampling-based containment of polynomial
// evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "acasxu/dynamics.hpp"
#include "ode/taylor_series.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

TaylorSeries variable(std::size_t order, double x0) {
  TaylorSeries t(order, Interval{x0});
  if (order >= 1) {
    t[1] = Interval{1.0};
  }
  return t;
}

TEST(TaylorSeries, ConstantSeries) {
  const TaylorSeries c(4, Interval{2.5});
  EXPECT_EQ(c.order(), 4u);
  EXPECT_EQ(c[0].lo(), 2.5);
  EXPECT_EQ(c[1].lo(), 0.0);
}

TEST(TaylorSeries, AdditionIsCoefficientwise) {
  TaylorSeries a(2, Interval{1.0});
  a[1] = Interval{2.0};
  TaylorSeries b(2, Interval{3.0});
  b[2] = Interval{4.0};
  const TaylorSeries s = a + b;
  EXPECT_TRUE(s[0].contains(4.0));
  EXPECT_TRUE(s[1].contains(2.0));
  EXPECT_TRUE(s[2].contains(4.0));
}

TEST(TaylorSeries, OrderMismatchThrows) {
  EXPECT_THROW(TaylorSeries(2) + TaylorSeries(3), std::invalid_argument);
}

TEST(TaylorSeries, CauchyProductOfKnownSeries) {
  // (1 + t)^2 = 1 + 2t + t^2
  const TaylorSeries one_plus_t = variable(3, 1.0);
  const TaylorSeries square = one_plus_t * one_plus_t;
  EXPECT_TRUE(square[0].contains(1.0));
  EXPECT_TRUE(square[1].contains(2.0));
  EXPECT_TRUE(square[2].contains(1.0));
  EXPECT_TRUE(square[3].contains(0.0));
}

TEST(TaylorSeries, ScalarOps) {
  const TaylorSeries t = variable(2, 0.0);
  const TaylorSeries y = Interval{3.0} * t + Interval{1.0};
  EXPECT_TRUE(y[0].contains(1.0));
  EXPECT_TRUE(y[1].contains(3.0));
  const TaylorSeries z = Interval{1.0} - t;
  EXPECT_TRUE(z[0].contains(1.0));
  EXPECT_TRUE(z[1].contains(-1.0));
}

TEST(TaylorSeries, SinCosCoefficientsAtZero) {
  // sin(t) = t - t^3/6 ..., cos(t) = 1 - t^2/2 ...
  const TaylorSeries t = variable(4, 0.0);
  const auto [s, c] = sincos(t);
  EXPECT_TRUE(s[0].contains(0.0));
  EXPECT_TRUE(s[1].contains(1.0));
  EXPECT_TRUE(s[2].contains(0.0));
  EXPECT_TRUE(s[3].contains(-1.0 / 6.0));
  EXPECT_TRUE(c[0].contains(1.0));
  EXPECT_TRUE(c[1].contains(0.0));
  EXPECT_TRUE(c[2].contains(-0.5));
  EXPECT_TRUE(c[4].contains(1.0 / 24.0));
}

TEST(TaylorSeries, SinCosAtNonzeroPoint) {
  const double x0 = 0.7;
  const TaylorSeries t = variable(3, x0);
  const auto [s, c] = sincos(t);
  EXPECT_TRUE(s[0].contains(std::sin(x0)));
  EXPECT_TRUE(s[1].contains(std::cos(x0)));
  EXPECT_TRUE(c[1].contains(-std::sin(x0)));
  EXPECT_TRUE(s[2].contains(-std::sin(x0) / 2.0));
}

TEST(TaylorSeries, SqrMatchesProduct) {
  TaylorSeries t = variable(3, 2.0);
  t[2] = Interval{0.5};
  const TaylorSeries a = sqr(t);
  const TaylorSeries b = t * t;
  for (std::size_t k = 0; k <= 3; ++k) {
    EXPECT_TRUE(a[k].contains(b[k].mid()));
  }
}

TEST(TaylorSeries, HornerEvaluation) {
  // p(t) = 1 + 2t + 3t^2 at t = [0, 0.5]
  TaylorSeries p(2, Interval{1.0});
  p[1] = Interval{2.0};
  p[2] = Interval{3.0};
  const Interval v = p.eval(Interval{0.0, 0.5});
  EXPECT_TRUE(v.contains(1.0));       // t = 0
  EXPECT_TRUE(v.contains(2.75));      // t = 0.5
  EXPECT_TRUE(v.contains(1.0 + 2.0 * 0.3 + 3.0 * 0.09));
}

TEST(TaylorSeries, EvalPrefixStopsEarly) {
  TaylorSeries p(2, Interval{1.0});
  p[1] = Interval{2.0};
  p[2] = Interval{1000.0};
  const Interval v = p.eval_prefix(Interval{1.0}, 1);
  EXPECT_TRUE(v.contains(3.0));
  EXPECT_LT(v.hi(), 10.0);  // the big order-2 coefficient is excluded
}

// Property: interval-coefficient polynomial evaluation contains the
// pointwise evaluation for sampled coefficients and times.
TEST(TaylorSeriesProperty, EvalContainment) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t order = static_cast<std::size_t>(rng.uniform_int(1, 6));
    TaylorSeries p(order);
    std::vector<double> coeff(order + 1);
    for (std::size_t k = 0; k <= order; ++k) {
      coeff[k] = rng.uniform(-3.0, 3.0);
      p[k] = Interval::centered(coeff[k], 1e-6);
    }
    const double t = rng.uniform(-1.0, 1.0);
    double truth = 0.0;
    for (std::size_t k = order + 1; k-- > 0;) {
      truth = coeff[k] + t * truth;
    }
    ASSERT_TRUE(p.eval(Interval{t}).contains(truth));
  }
}

// Property: sincos of a perturbed series encloses sin/cos composed series
// sampled pointwise via high-order finite differencing of the composition.
TEST(TaylorSeriesProperty, SinCosCompositionContainment) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    // u(t) = u0 + u1 t with sampled coefficients
    const double u0 = rng.uniform(-3.0, 3.0);
    const double u1 = rng.uniform(-2.0, 2.0);
    TaylorSeries u(3, Interval{u0});
    u[1] = Interval{u1};
    const auto [s, c] = sincos(u);
    // Exact derivatives of sin(u0 + u1 t) at t=0:
    // d/dt = u1 cos(u0); d2/dt2 = -u1^2 sin(u0)
    EXPECT_TRUE(s[0].contains(std::sin(u0)));
    EXPECT_TRUE(s[1].contains(u1 * std::cos(u0)));
    EXPECT_TRUE(s[2].contains(-u1 * u1 * std::sin(u0) / 2.0));
    EXPECT_TRUE(c[0].contains(std::cos(u0)));
    EXPECT_TRUE(c[1].contains(-u1 * std::sin(u0)));
    EXPECT_TRUE(c[2].contains(-u1 * u1 * std::cos(u0) / 2.0));
  }
}


// ---------------------------------------------------------------------------
// Subnormal guards: outward rounding widens 0 + 0 to [-4.9e-324, 4.9e-324],
// and every later operation on such bounds runs on subnormals. The exact-zero
// rule keeps zero coefficients exactly [0, 0] and no bound subnormal.
// ---------------------------------------------------------------------------

void expect_normal_bounds(const TaylorSeries& t) {
  for (std::size_t k = 0; k <= t.order(); ++k) {
    EXPECT_NE(std::fpclassify(t[k].lo()), FP_SUBNORMAL) << "coefficient " << k;
    EXPECT_NE(std::fpclassify(t[k].hi()), FP_SUBNORMAL) << "coefficient " << k;
  }
}

void expect_exact_zeros_from(const TaylorSeries& t, std::size_t first) {
  for (std::size_t k = first; k <= t.order(); ++k) {
    EXPECT_TRUE(is_exact_zero(t[k])) << "coefficient " << k << " = " << t[k];
  }
}

TEST(TaylorSeriesSubnormal, ConstantTimesSeries) {
  const TaylorSeries c(4, Interval{3.0, 3.5});
  const TaylorSeries t = variable(4, 0.25);
  for (const TaylorSeries& product : {Interval{0.7} * c, c * t, t * c, c * c}) {
    expect_normal_bounds(product);
  }
  expect_exact_zeros_from(Interval{0.7} * c, 1);
  expect_exact_zeros_from(c * t, 2);
  expect_exact_zeros_from(c * c, 1);
  expect_exact_zeros_from(0.0 * t, 0);
}

TEST(TaylorSeriesSubnormal, ConstantPlusConstant) {
  const TaylorSeries a(4, Interval{1.0, 2.0});
  const TaylorSeries b(4, Interval{-3.0});
  for (const TaylorSeries& r : {a + b, a - b, a + Interval{0.5}, Interval{0.5} - a, -a}) {
    expect_normal_bounds(r);
    expect_exact_zeros_from(r, 1);
  }
  // Adding [0, 0] leaves the other operand bit-for-bit unchanged.
  EXPECT_EQ((a + TaylorSeries(4))[0], a[0]);
  EXPECT_EQ((TaylorSeries(4) - a)[0], -a[0]);
}

TEST(TaylorSeriesSubnormal, SinCosOfLinearSeries) {
  TaylorSeries u(4, Interval{0.3, 0.31});
  u[1] = Interval{-0.026};
  const auto [s, c] = sincos(u);
  expect_normal_bounds(s);
  expect_normal_bounds(c);
  // A constant argument has constant sine and cosine.
  const auto [s0, c0] = sincos(TaylorSeries(4, Interval{1.2}));
  expect_exact_zeros_from(s0, 1);
  expect_exact_zeros_from(c0, 1);
  // An angle that is exactly 0: sin(0) = 0 and cos(0) = 1 exactly, so no
  // bound of either series turns subnormal.
  TaylorSeries z(4);
  z[1] = Interval{-0.026};
  const auto [sz, cz] = sincos(z);
  expect_normal_bounds(sz);
  expect_normal_bounds(cz);
  EXPECT_TRUE(is_exact_zero(sz[0]));
  EXPECT_EQ(cz[0], Interval{1.0});
}

TEST(TaylorSeriesSubnormal, AcasFieldWithConstantSpeeds) {
  namespace ax = acasxu;
  // Order-4 solution series as the integrator builds them: v_own and v_int
  // constant, ψ linear under the turn command, x and y full.
  std::vector<TaylorSeries> s(ax::kStateDim, TaylorSeries(4));
  s[ax::kIdxX] = variable(4, 1200.0);
  s[ax::kIdxX][2] = Interval{-3.5, -3.4};
  s[ax::kIdxY] = variable(4, 6500.0);
  s[ax::kIdxY][3] = Interval{0.01, 0.02};
  s[ax::kIdxPsi] = TaylorSeries(4, Interval{2.9, 2.91});
  s[ax::kIdxPsi][1] = Interval{-0.026};
  s[ax::kIdxVown] = TaylorSeries(4, Interval{700.0});
  s[ax::kIdxVint] = TaylorSeries(4, Interval{600.0});
  for (const double command : {0.0, 0.026}) {
    const std::vector<TaylorSeries> u{TaylorSeries(4, Interval{command})};
    std::vector<TaylorSeries> out(ax::kStateDim);
    ax::KinematicsField{}(std::span<const TaylorSeries>(s), std::span<const TaylorSeries>(u),
                          std::span<TaylorSeries>(out));
    for (const TaylorSeries& o : out) {
      expect_normal_bounds(o);
    }
    expect_exact_zeros_from(out[ax::kIdxPsi], 1);
    expect_exact_zeros_from(out[ax::kIdxVown], 0);
    expect_exact_zeros_from(out[ax::kIdxVint], 0);
  }
}

}  // namespace
}  // namespace nncs
