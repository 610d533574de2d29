#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace nncs::scenario {

/// Unicycle corridor keeping — the third registered workload, a
/// bounded-horizon benchmark in the style of the closed-loop suites of
/// *Reachability Analysis of Neural Network Control Systems* and *Interval
/// Reachability of Nonlinear Dynamical Systems with Neural Network
/// Controllers* (see PAPERS.md). Proves the scenario layer carries
/// workloads beyond the two ported ones, with a 3-dimensional state and
/// trigonometric plant dynamics.
///
///   state s = (x, y, ψ)   x = along-track position (m),
///                         y = cross-track offset (m), ψ = heading (rad)
///   dynamics x' = v·cos ψ,  y' = v·sin ψ,  ψ' = u   (constant speed
///                         v = 1 m/s, u = commanded turn rate)
///
/// The controller runs every T = 0.25 s and picks the turn rate from
/// {−1, −0.5, 0, +0.5, +1} rad/s with a network imitating a saturated
/// steer-to-centerline policy (fixed seed, cached in
/// ./unicycle_nets_cache).
///
/// Property: from any y0 ∈ [−1, 1] m, ψ0 ∈ [−0.7, 0.7] rad (x0 = 0), the
/// vehicle provably stays inside the corridor |y| < 3 m for the first 4 s.
/// Without steering the worst heading leaves the corridor within the
/// horizon, so the property genuinely depends on the learned policy. No
/// target set: the successful verdict is kHorizonExhausted leaves with no
/// error intersection. Partition axes are (offset cells, heading cells);
/// the bin axis is the initial cross-track offset.
std::unique_ptr<Scenario> make_unicycle_scenario();

/// The unicycle plant of `make_unicycle_scenario`, s = (x, y, ψ), u = turn
/// rate.
struct UnicycleField {
  static constexpr double kSpeed = 1.0;

  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    const auto [sp, cp] = sincos(s[2]);
    out[0] = Interval{kSpeed} * cp + 0.0 * s[0];  // x' = v·cos ψ
    out[1] = Interval{kSpeed} * sp + 0.0 * s[1];  // y' = v·sin ψ
    out[2] = u[0] + 0.0 * s[2];                   // ψ' = u
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = kSpeed * std::cos(s[2]);
    out[1] = kSpeed * std::sin(s[2]);
    out[2] = u[0];
  }
};

}  // namespace nncs::scenario
