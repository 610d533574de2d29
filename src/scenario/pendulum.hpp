#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace nncs::scenario {

/// The pendulum plant, s = (θ, ω), u = torque:
///   θ' = ω,   ω' = −(g/l)·sin θ − c·ω + u.
struct PendulumField {
  /// Gravity over pendulum length g/l (hanging equilibrium, so the restoring
  /// torque is −(g/l)·sin θ and the open loop is a damped oscillator).
  static constexpr double kGl = 5.0;
  static constexpr double kDamping = 1.0;

  template <class S>
  void operator()(std::span<const S> s, std::span<const S> u, std::span<S> out) const {
    out[0] = s[1] + 0.0 * s[0];
    out[1] = Interval{-kGl} * sin(s[0]) - Interval{kDamping} * s[1] + u[0];
  }
  void operator()(std::span<const double> s, std::span<const double> u,
                  std::span<double> out) const {
    out[0] = s[1];
    out[1] = -kGl * std::sin(s[0]) - kDamping * s[1] + u[0];
  }
};

/// Damped (hanging) pendulum stabilized by a learned discrete-torque policy
/// — the showcase workload of the zonotope loop domain: its rotational
/// dynamics make the boxed loop wrap at every hand-off, so the same
/// partition and budget verify under `--domain zonotope` and fail under
/// `--domain box`.
std::unique_ptr<Scenario> make_pendulum_scenario();

}  // namespace nncs::scenario
