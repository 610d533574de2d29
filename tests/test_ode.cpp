// Tests for the validated ODE machinery: Picard a-priori enclosures, the
// interval Taylor-series integrator, the Euler baseline, Algorithm 1
// (simulate) and the RK4 reference — including the soundness property that
// every concretely integrated trajectory stays inside the validated
// enclosures.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "acasxu/dynamics.hpp"
#include "acasxu/policy.hpp"
#include "ode/concrete_integrator.hpp"
#include "ode/dynamics.hpp"
#include "ode/validated_integrator.hpp"
#include "scenario/pendulum.hpp"
#include "scenario/unicycle.hpp"
#include "util/rng.hpp"

namespace nncs {
namespace {

/// s' = -s (1-d decay): closed form s(t) = s0 e^{-t}.
struct DecayField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = -s[0] + 0.0 * u[0];
  }
};

/// Harmonic oscillator: (x, v)' = (v, -x); command unused.
struct OscillatorField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * u[0];
    out[1] = -s[0] + 0.0 * u[0];
  }
};

/// Controlled integrator: (p, v)' = (v, u).
struct DoubleIntegratorField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];
    out[1] = u[0] + 0.0 * s[1];
  }
};

/// Nonlinear: s' = sin(s) + u.
struct SineField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = sin(s[0]) + u[0];
  }
};

TEST(Dynamics, ModelReportsDimensions) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  EXPECT_EQ(f->state_dim(), 2u);
  EXPECT_EQ(f->command_dim(), 1u);
}

TEST(Dynamics, EvalOnBoxMatchesIntervalEvaluation) {
  const auto f = make_dynamics(2, 1, DoubleIntegratorField{});
  const Box img = eval_on_box(*f, Box{Interval{0.0, 1.0}, Interval{2.0, 3.0}}, Vec{5.0});
  EXPECT_TRUE(img[0].contains(Interval{2.0, 3.0}));
  EXPECT_TRUE(img[1].contains(5.0));
}

TEST(Picard, FindsEnclosureForDecay) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const auto b = picard_enclosure(*f, Box{Interval{1.0, 2.0}}, Vec{0.0}, 0.1);
  ASSERT_TRUE(b.has_value());
  // True solutions stay in [e^{-0.1}, 2].
  EXPECT_TRUE((*b)[0].contains(Interval{std::exp(-0.1), 2.0}));
}

TEST(Picard, RejectsNonPositiveStep) {
  const auto f = make_dynamics(1, 1, DecayField{});
  EXPECT_THROW(picard_enclosure(*f, Box{Interval{1.0}}, Vec{0.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(picard_enclosure(*f, Box{Interval{1.0}}, Vec{0.0}, -1.0), std::invalid_argument);
}

TEST(TaylorIntegrator, RejectsOrderZero) {
  TaylorIntegrator::Config config;
  config.order = 0;
  EXPECT_THROW(TaylorIntegrator{config}, std::invalid_argument);
}

TEST(TaylorIntegrator, DecayStepEnclosesClosedForm) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const TaylorIntegrator integrator;
  const auto step = integrator.step(*f, Box{Interval{1.0, 2.0}}, Vec{0.0}, 0.25);
  ASSERT_TRUE(step.has_value());
  const double lo = std::exp(-0.25) * 1.0;
  const double hi = std::exp(-0.25) * 2.0;
  EXPECT_TRUE(step->end[0].contains(lo));
  EXPECT_TRUE(step->end[0].contains(hi));
  // Box enclosures cannot contract widths (the dependency problem); the
  // natural bound is one factor of e^{L·h} on the initial width.
  EXPECT_LT(step->end[0].width(), 1.0 * std::exp(0.25) * 1.05);
  // Flow contains both endpoints in time.
  EXPECT_TRUE(step->flow[0].contains(2.0));
  EXPECT_TRUE(step->flow[0].contains(lo));
  // End is inside flow.
  EXPECT_TRUE(step->flow.contains(step->end));
}

TEST(TaylorIntegrator, OscillatorQuarterTurn) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  const TaylorIntegrator integrator(TaylorIntegrator::Config{6, {}});
  Box current{Interval{1.0, 1.0}, Interval{0.0, 0.0}};
  // Integrate to t = pi/2 in 16 steps: (1,0) -> (0,-1).
  const double h = std::numbers::pi / 2.0 / 16.0;
  for (int i = 0; i < 16; ++i) {
    const auto step = integrator.step(*f, current, Vec{0.0}, h);
    ASSERT_TRUE(step.has_value());
    current = step->end;
  }
  EXPECT_TRUE(current[0].contains(0.0));
  EXPECT_TRUE(current[1].contains(-1.0));
  EXPECT_LT(current[0].width(), 1e-6);
}

TEST(TaylorIntegrator, HigherOrderIsTighter) {
  const auto f = make_dynamics(1, 1, SineField{});
  const Box s0{Interval{0.4, 0.5}};
  const TaylorIntegrator low(TaylorIntegrator::Config{1, {}});
  const TaylorIntegrator high(TaylorIntegrator::Config{5, {}});
  const auto step_low = low.step(*f, s0, Vec{0.1}, 0.2);
  const auto step_high = high.step(*f, s0, Vec{0.1}, 0.2);
  ASSERT_TRUE(step_low.has_value());
  ASSERT_TRUE(step_high.has_value());
  EXPECT_LE(step_high->end[0].width(), step_low->end[0].width());
}

TEST(TaylorIntegrator, ConstantDimensionsStayExact) {
  // v_own' = v_int' = 0 on ACAS Xu: their zero Picard and remainder terms
  // must not widen the speeds, however many steps are chained.
  namespace ax = acasxu;
  const auto f = ax::make_dynamics();
  const TaylorIntegrator integrator(TaylorIntegrator::Config{4, {}});
  for (const std::size_t advisory : {std::size_t{0}, std::size_t{2}}) {
    Box s{Interval{1200.0, 1250.0}, Interval{6500.0, 6550.0}, Interval{2.9, 2.91},
          Interval{700.0}, Interval{600.0}};
    const Vec u{ax::turn_rate(advisory)};
    for (int k = 0; k < 200; ++k) {
      const auto step = integrator.step(*f, s, u, 0.1);
      ASSERT_TRUE(step.has_value()) << "advisory " << advisory << " step " << k;
      EXPECT_EQ(step->flow[ax::kIdxVown], Interval{700.0});
      EXPECT_EQ(step->flow[ax::kIdxVint], Interval{600.0});
      s = step->end;
    }
    EXPECT_EQ(s[ax::kIdxVown], Interval{700.0}) << "advisory " << advisory;
    EXPECT_EQ(s[ax::kIdxVint], Interval{600.0}) << "advisory " << advisory;
  }
}

TEST(EulerIntegrator, SoundButLooserThanTaylor) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const EulerIntegrator euler;
  const TaylorIntegrator taylor;
  const Box s0{Interval{1.0, 1.1}};
  const auto se = euler.step(*f, s0, Vec{0.0}, 0.1);
  const auto st = taylor.step(*f, s0, Vec{0.0}, 0.1);
  ASSERT_TRUE(se.has_value());
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(se->end[0].contains(std::exp(-0.1)));
  EXPECT_GE(se->end[0].width(), st->end[0].width());
}

TEST(Simulate, FlowpipeHasOneSegmentPerStep) {
  const auto f = make_dynamics(2, 1, DoubleIntegratorField{});
  const TaylorIntegrator integrator;
  const Flowpipe pipe =
      simulate(*f, integrator, Box{Interval{0.0, 1.0}, Interval{1.0, 1.0}}, Vec{0.5}, 1.0, 4);
  EXPECT_TRUE(pipe.ok);
  EXPECT_EQ(pipe.segments.size(), 4u);
  // p(1) = p0 + v0 + u/2 in [1.25, 2.25]; v(1) = 1.5.
  EXPECT_TRUE(pipe.end[0].contains(Interval{1.25, 2.25}));
  EXPECT_TRUE(pipe.end[1].contains(1.5));
  // hull covers start and end
  const Box h = pipe.hull_box();
  EXPECT_TRUE(h[0].contains(0.0));
  EXPECT_TRUE(h[0].contains(2.25));
}

TEST(Simulate, InvalidArgumentsThrow) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const TaylorIntegrator integrator;
  EXPECT_THROW(simulate(*f, integrator, Box{Interval{1.0}}, Vec{0.0}, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW(simulate(*f, integrator, Box{Interval{1.0}}, Vec{0.0}, -1.0, 4),
               std::invalid_argument);
}

TEST(Rk4, MatchesClosedFormDecay) {
  const auto f = make_dynamics(1, 1, DecayField{});
  const Vec s1 = rk4_integrate(*f, Vec{1.0}, Vec{0.0}, 1.0, 100);
  EXPECT_NEAR(s1[0], std::exp(-1.0), 1e-8);
}

TEST(Rk4, TrajectoryHasExpectedShape) {
  const auto f = make_dynamics(2, 1, OscillatorField{});
  const auto traj = rk4_trajectory(*f, Vec{1.0, 0.0}, Vec{0.0}, 2.0 * std::numbers::pi, 200);
  EXPECT_EQ(traj.size(), 201u);
  EXPECT_NEAR(traj.back()[0], 1.0, 1e-6);  // full period returns to start
  EXPECT_NEAR(traj.back()[1], 0.0, 1e-6);
  EXPECT_THROW(rk4_trajectory(*f, Vec{1.0, 0.0}, Vec{0.0}, 1.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Soundness property: RK4 trajectories from sampled initial conditions stay
// inside the validated flowpipe, for several systems and step counts.
// ---------------------------------------------------------------------------

struct SoundnessCase {
  const char* name;
  std::size_t dim;
  double period;
  int steps;
  double u;
  double lo0, hi0, lo1, hi1;  // initial ranges (dim 2 uses both)
  int field;                  // 0=decay 1=osc 2=dblint 3=sine
};

// Print a case by its name: the default byte dump would put the address of
// `name` into every discovered CTest name, which then changes between runs.
void PrintTo(const SoundnessCase& c, std::ostream* os) { *os << c.name; }

class FlowpipeSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(FlowpipeSoundness, ConcreteTrajectoriesStayInside) {
  const auto& c = GetParam();
  std::unique_ptr<Dynamics> f;
  switch (c.field) {
    case 0:
      f = make_dynamics(1, 1, DecayField{});
      break;
    case 1:
      f = make_dynamics(2, 1, OscillatorField{});
      break;
    case 2:
      f = make_dynamics(2, 1, DoubleIntegratorField{});
      break;
    default:
      f = make_dynamics(1, 1, SineField{});
      break;
  }
  Box s0 = c.dim == 1 ? Box{Interval{c.lo0, c.hi0}}
                      : Box{Interval{c.lo0, c.hi0}, Interval{c.lo1, c.hi1}};
  const TaylorIntegrator integrator;
  const Flowpipe pipe = simulate(*f, integrator, s0, Vec{c.u}, c.period, c.steps);
  ASSERT_TRUE(pipe.ok) << c.name;

  Rng rng(2024);
  const int kSubstepsPerSegment = 8;
  for (int trial = 0; trial < 40; ++trial) {
    Vec s(c.dim);
    for (std::size_t d = 0; d < c.dim; ++d) {
      s[d] = rng.uniform(s0[d].lo(), s0[d].hi());
    }
    // Walk the trajectory segment by segment; every substep state must lie
    // in the corresponding flowpipe segment.
    const double h_seg = c.period / c.steps;
    for (int seg = 0; seg < c.steps; ++seg) {
      for (int sub = 0; sub < kSubstepsPerSegment; ++sub) {
        ASSERT_TRUE(pipe.segments[seg].contains(s))
            << c.name << " seg " << seg << " sub " << sub;
        s = rk4_step(*f, s, Vec{c.u}, h_seg / kSubstepsPerSegment);
      }
    }
    ASSERT_TRUE(pipe.end.contains(s)) << c.name << " at end";
  }
}

// ---------------------------------------------------------------------------
// Affine-form steps (the zonotope loop domain's integrator): soundness
// against the concrete simulator, the never-worse-than-boxing floor, the
// correlation survival on rotations, and the declared-residual tightening.
// ---------------------------------------------------------------------------

/// Damped pendulum-like field with a declared linear part,
///   f(s, u) = A·s + B·u + (0, -(sin s0 - s0)),
/// used both with the implicit residual (interval evaluation of f - A·s -
/// B·u) and with the tight monotone-endpoint extension.
struct SoftPendulumField {
  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];
    out[1] = -sin(s[0]) - Interval{0.2} * s[1] + u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = s[1];
    out[1] = -std::sin(s[0]) - 0.2 * s[1] + u[0];
  }
};

LinearPart soft_pendulum_linear(bool tight_residual) {
  LinearPart lp{{0.0, 1.0, -1.0, -0.2}, {0.0, 1.0}};
  if (tight_residual) {
    // sin x - x is non-increasing, so its exact range over [lo, hi] is the
    // hull of the outward-rounded endpoint evaluations.
    lp.residual = [](std::span<const Interval> s, std::span<Interval> out) {
      const Interval lo{s[0].lo()};
      const Interval hi{s[0].hi()};
      out[0] = Interval{};
      out[1] = -hull(sin(lo) - lo, sin(hi) - hi);
    };
  }
  return lp;
}

/// Pure rotation with an exact (zero) declared residual.
std::unique_ptr<Dynamics> rotation_dynamics() {
  LinearPart lp{{0.0, 1.0, -1.0, 0.0}, {0.0, 0.0}};
  lp.residual = [](std::span<const Interval>, std::span<Interval> out) {
    out[0] = Interval{};
    out[1] = Interval{};
  };
  return make_dynamics(2, 1, OscillatorField{}, lp);
}

TEST(AffineStep, EndBoxNeverWiderThanBoxedStep) {
  const auto f = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const TaylorIntegrator integrator;
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const double c0 = rng.uniform(-0.6, 0.6);
    const double c1 = rng.uniform(-0.8, 0.8);
    const double w = rng.uniform(0.01, 0.3);
    const Box s0{Interval{c0 - w, c0 + w}, Interval{c1 - w, c1 + w}};
    const Vec u{rng.uniform(-1.0, 1.0)};
    // Mirror the integrator's own boxed companion step exactly (it runs on
    // the lifted set's concretization, which carries a few ulps of lift
    // slack over s0) so the floor guarantee is a deterministic containment.
    const AffineSet lifted = AffineSet::from_box(s0);
    const auto boxed = integrator.step(*f, lifted.concretize(), u, 0.05);
    const auto affine = integrator.step_affine(*f, lifted, u, 0.05);
    ASSERT_TRUE(boxed.has_value());
    ASSERT_TRUE(affine.has_value());
    EXPECT_TRUE(boxed->end.contains(affine->end_box)) << "trial " << trial;
    EXPECT_TRUE(affine->end.concretize().contains(affine->end_box));
  }
}

TEST(AffineStep, SoundAgainstConcreteTrajectories) {
  const auto f = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const TaylorIntegrator integrator;
  const Box s0{Interval{0.2, 0.4}, Interval{-0.3, -0.1}};
  const Vec u{0.5};
  const double h = 0.08;
  const auto affine = integrator.step_affine(*f, AffineSet::from_box(s0), u, h);
  ASSERT_TRUE(affine.has_value());
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    Vec s{rng.uniform(s0[0].lo(), s0[0].hi()), rng.uniform(s0[1].lo(), s0[1].hi())};
    EXPECT_TRUE(affine->flow.contains(s));
    // Flow must cover the whole step, end_box the endpoint.
    for (int sub = 0; sub < 8; ++sub) {
      s = rk4_step(*f, s, u, h / 8.0);
      EXPECT_TRUE(affine->flow.contains(s)) << "mid-step escape, trial " << trial;
    }
    EXPECT_TRUE(affine->end_box.contains(s)) << "end escape, trial " << trial;
  }
}

TEST(AffineStep, DeclaredResidualIsTighterThanImplicit) {
  const Box s0{Interval{-0.5, 0.5}, Interval{-0.2, 0.2}};
  const Vec u{0.0};
  const TaylorIntegrator integrator;
  const auto f_implicit =
      make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(false));
  const auto f_tight = make_dynamics(2, 1, SoftPendulumField{}, soft_pendulum_linear(true));
  const auto implicit = integrator.step_affine(*f_implicit, AffineSet::from_box(s0), u, 0.1);
  const auto tight = integrator.step_affine(*f_tight, AffineSet::from_box(s0), u, 0.1);
  ASSERT_TRUE(implicit.has_value());
  ASSERT_TRUE(tight.has_value());
  // The implicit interval recovery of sin x - x over a zero-centred box is
  // ~2|x|-wide from dependency loss; the monotone endpoint extension is
  // O(|x|^3). Velocity (the dimension the residual feeds) must come out
  // strictly tighter, and never looser anywhere.
  EXPECT_LT(tight->end_box[1].width(), implicit->end_box[1].width());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(tight->end_box[i].width(), implicit->end_box[i].width() + 1e-12);
  }
}

TEST(SimulateAffine, RotationStaysTightWhereBoxingWraps) {
  const auto f = rotation_dynamics();
  const TaylorIntegrator integrator;
  const Box s0{Interval{0.9, 1.1}, Interval{-0.1, 0.1}};
  const Vec u{0.0};
  const int steps = 10;
  const double period = 1.2;
  const Flowpipe boxed = simulate(*f, integrator, s0, u, period, steps);
  const AffineFlowpipe affine =
      simulate_affine(*f, integrator, AffineSet::from_box(s0), u, period, steps);
  ASSERT_TRUE(boxed.ok);
  ASSERT_TRUE(affine.ok);
  // Rotation is an isometry: the affine end set keeps widths ~0.2 while the
  // boxed pipeline compounds a wrapping factor every sub-step.
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(affine.end_box[i].width(), boxed.end[i].width());
    EXPECT_LT(affine.end_box[i].width(), 0.3);
  }
  EXPECT_GT(boxed.end[0].width(), affine.end_box[0].width() * 1.5);
  // And it is still sound: concrete endpoints stay inside.
  Rng rng(47);
  for (int trial = 0; trial < 30; ++trial) {
    Vec s{rng.uniform(s0[0].lo(), s0[0].hi()), rng.uniform(s0[1].lo(), s0[1].hi())};
    s = rk4_integrate(*f, s, u, period, 256);
    EXPECT_TRUE(affine.end_box.contains(s)) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, FlowpipeSoundness,
    ::testing::Values(
        SoundnessCase{"decay", 1, 1.0, 10, 0.0, 0.5, 1.5, 0, 0, 0},
        SoundnessCase{"decay_forced", 1, 2.0, 20, 0.7, -1.0, 1.0, 0, 0, 0},
        SoundnessCase{"oscillator", 2, 1.0, 10, 0.0, 0.9, 1.1, -0.1, 0.1, 1},
        SoundnessCase{"double_integrator", 2, 1.0, 5, -2.0, 0.0, 1.0, 1.0, 2.0, 2},
        SoundnessCase{"sine", 1, 1.0, 10, 0.3, 0.0, 0.5, 0, 0, 3},
        SoundnessCase{"sine_negative", 1, 0.5, 5, -0.5, -1.0, -0.5, 0, 0, 3}),
    [](const auto& param_info) { return param_info.param.name; });


// ---------------------------------------------------------------------------
// The Taylor step against a reference computed the way the step was first
// written: K full-order evaluations of f per coefficient set, over series
// whose every coefficient sum and product is outward rounded, [0, 0]
// operands included. The production step skips exact-zero terms and
// truncates each evaluation to the active order; both only drop one-ulp
// widenings, so its flow and end boxes must lie inside the reference's,
// dimension by dimension. Declared last: the `sin`/`sincos` overloads below
// would hide the double ones from fields defined after them.
// ---------------------------------------------------------------------------

struct RefSeries {
  std::vector<Interval> c;
};

RefSeries operator+(RefSeries a, const RefSeries& b) {
  for (std::size_t k = 0; k < a.c.size(); ++k) {
    a.c[k] += b.c[k];
  }
  return a;
}

RefSeries operator-(RefSeries a, const RefSeries& b) {
  for (std::size_t k = 0; k < a.c.size(); ++k) {
    a.c[k] -= b.c[k];
  }
  return a;
}

RefSeries operator-(RefSeries a) {
  for (Interval& x : a.c) {
    x = -x;
  }
  return a;
}

RefSeries operator*(const Interval& k, RefSeries a) {
  for (Interval& x : a.c) {
    x = k * x;
  }
  return a;
}

RefSeries operator*(const RefSeries& a, const RefSeries& b) {
  RefSeries r{std::vector<Interval>(a.c.size())};
  for (std::size_t k = 0; k < a.c.size(); ++k) {
    for (std::size_t i = 0; i <= k; ++i) {
      r.c[k] += a.c[i] * b.c[k - i];
    }
  }
  return r;
}

std::pair<RefSeries, RefSeries> sincos(const RefSeries& u) {
  const std::size_t n = u.c.size();
  RefSeries s{std::vector<Interval>(n)};
  RefSeries c{std::vector<Interval>(n)};
  s.c[0] = sin(u.c[0]);
  c.c[0] = cos(u.c[0]);
  for (std::size_t k = 1; k < n; ++k) {
    Interval s_acc;
    Interval c_acc;
    for (std::size_t j = 1; j <= k; ++j) {
      const Interval ju = Interval{static_cast<double>(j)} * u.c[j];
      s_acc += ju * c.c[k - j];
      c_acc += ju * s.c[k - j];
    }
    const Interval k_iv{static_cast<double>(k)};
    s.c[k] = s_acc / k_iv;
    c.c[k] = -(c_acc / k_iv);
  }
  return {std::move(s), std::move(c)};
}

RefSeries sin(const RefSeries& u) { return sincos(u).first; }

/// Solution coefficients 0..K seeded at `seed`, each of the K evaluations of
/// f at full order K.
template <class Field>
std::vector<RefSeries> reference_coefficients(const Field& field, const Box& seed, const Vec& u,
                                              std::size_t order) {
  const auto constant = [order](const Interval& v) {
    RefSeries r{std::vector<Interval>(order + 1)};
    r.c[0] = v;
    return r;
  };
  std::vector<RefSeries> s;
  for (std::size_t i = 0; i < seed.dim(); ++i) {
    s.push_back(constant(seed[i]));
  }
  std::vector<RefSeries> us;
  for (const double uc : u) {
    us.push_back(constant(Interval{uc}));
  }
  std::vector<RefSeries> fs(seed.dim());
  for (std::size_t k = 0; k < order; ++k) {
    field(std::span<const RefSeries>(s), std::span<const RefSeries>(us), std::span<RefSeries>(fs));
    for (std::size_t i = 0; i < seed.dim(); ++i) {
      s[i].c[k + 1] = fs[i].c[k] / Interval{static_cast<double>(k + 1)};
    }
  }
  return s;
}

/// The reference step: the same Picard enclosure (interval evaluation only),
/// then the prefix/remainder Taylor form over the coefficients above.
template <class Field>
std::optional<ValidatedStep> reference_step(const Field& field, const Dynamics& f, const Box& s0,
                                            const Vec& u, double h, int order) {
  const auto b = picard_enclosure(f, s0, u, h, PicardConfig{});
  if (!b) {
    return std::nullopt;
  }
  const auto k = static_cast<std::size_t>(order);
  const auto prefix = reference_coefficients(field, s0, u, k);
  const auto remainder = reference_coefficients(field, *b, u, k);
  const auto horner = [k](const RefSeries& p, const Interval& t) {
    Interval acc = p.c[k - 1];
    for (std::size_t j = k - 1; j-- > 0;) {
      acc = p.c[j] + t * acc;
    }
    return acc;
  };
  const Interval t_end{h};
  const Interval t_flow{0.0, h};
  std::vector<Interval> flow;
  std::vector<Interval> end;
  for (std::size_t i = 0; i < s0.dim(); ++i) {
    const Interval rem = remainder[i].c[k];
    Interval end_i = horner(prefix[i], t_end) + rem * pow(t_end, order);
    Interval flow_i = horner(prefix[i], t_flow) + rem * pow(t_flow, order);
    if (auto tight = intersect(flow_i, (*b)[i])) {
      flow_i = *tight;
    }
    if (auto tight = intersect(end_i, flow_i)) {
      end_i = *tight;
    }
    flow.push_back(flow_i);
    end.push_back(end_i);
  }
  return ValidatedStep{Box{std::move(flow)}, Box{std::move(end)}};
}

/// Range of one cell dimension: its center is drawn from [lo, hi], its width
/// from [min_width, max_width]; a zero `min_width` makes half the cells
/// degenerate in that dimension.
struct CellAxis {
  double lo, hi, min_width, max_width;
};

template <class Field>
void expect_inside_reference(const Field& field, const std::vector<CellAxis>& axes,
                             const Vec& commands, double h, int cells, unsigned seed) {
  const auto f = make_dynamics(axes.size(), 1, field);
  Rng rng(seed);
  int tighter = 0;
  for (const int order : {1, 2, 4}) {
    const TaylorIntegrator integrator(TaylorIntegrator::Config{order, {}});
    for (int cell = 0; cell < cells; ++cell) {
      std::vector<Interval> dims;
      for (const CellAxis& a : axes) {
        const double mid = rng.uniform(a.lo, a.hi);
        const bool degenerate = a.min_width == 0.0 && rng.uniform(0.0, 1.0) < 0.5;
        const double w = degenerate ? 0.0 : rng.uniform(a.min_width, a.max_width);
        dims.emplace_back(mid - w / 2.0, mid + w / 2.0);
      }
      const Box s0{std::move(dims)};
      for (const double command : commands) {
        const Vec u{command};
        const auto step = integrator.step(*f, s0, u, h);
        const auto ref = reference_step(field, *f, s0, u, h, order);
        ASSERT_EQ(step.has_value(), ref.has_value()) << s0;
        if (!step) {
          continue;
        }
        for (std::size_t d = 0; d < s0.dim(); ++d) {
          tighter += ref->end[d] != step->end[d] ? 1 : 0;
          ASSERT_TRUE(ref->flow[d].contains(step->flow[d]))
              << "order " << order << " dim " << d << " cell " << s0 << " u " << command;
          ASSERT_TRUE(ref->end[d].contains(step->end[d]))
              << "order " << order << " dim " << d << " cell " << s0 << " u " << command;
        }
        // Concrete trajectories from sampled starts stay inside the boxes.
        constexpr int kSubsteps = 8;
        for (int sample = 0; sample < 4; ++sample) {
          Vec s(s0.dim());
          for (std::size_t d = 0; d < s0.dim(); ++d) {
            s[d] = rng.uniform(s0[d].lo(), s0[d].hi());
          }
          for (int sub = 0; sub < kSubsteps; ++sub) {
            ASSERT_TRUE(step->flow.contains(s)) << "order " << order << " cell " << s0;
            s = rk4_step(*f, s, u, h / kSubsteps);
          }
          ASSERT_TRUE(step->end.contains(s)) << "order " << order << " cell " << s0;
        }
      }
    }
  }
  // The reference is a different computation: some ends come out strictly
  // wider there, so the containment checks above are not vacuous.
  EXPECT_GT(tighter, 0);
}

TEST(TaylorReference, AcasStepsStayInsideReference) {
  Vec commands;
  for (std::size_t a = 0; a < acasxu::kNumAdvisories; ++a) {
    commands.push_back(acasxu::turn_rate(a));
  }
  // (x, y, ψ, v_own, v_int) around the paper's encounter geometry.
  const std::vector<CellAxis> axes{{-8000.0, 8000.0, 1.0, 200.0},
                                   {-8000.0, 8000.0, 1.0, 200.0},
                                   {-3.1, 3.1, 1e-4, 0.05},
                                   {100.0, 1200.0, 0.0, 20.0},
                                   {0.0, 1200.0, 0.0, 20.0}};
  expect_inside_reference(acasxu::KinematicsField{}, axes, commands, 0.1, 60, 71);
}

TEST(TaylorReference, PendulumStepsStayInsideReference) {
  const std::vector<CellAxis> axes{{-0.8, 0.8, 1e-4, 0.1}, {-1.5, 1.5, 1e-4, 0.2}};
  expect_inside_reference(scenario::PendulumField{}, axes, Vec{-2.0, 0.0, 2.0}, 0.05, 100, 72);
}

TEST(TaylorReference, UnicycleStepsStayInsideReference) {
  const std::vector<CellAxis> axes{{0.0, 4.0, 1e-3, 0.2}, {-3.0, 3.0, 1e-3, 0.2},
                                   {-1.6, 1.6, 1e-4, 0.1}};
  expect_inside_reference(scenario::UnicycleField{}, axes, Vec{-1.0, -0.5, 0.0, 0.5, 1.0}, 0.125,
                          100, 73);
}

}  // namespace
}  // namespace nncs
