#pragma once

// Output checks of the benchmark, independent of the analysis they check:
// nothing here calls `reach_analyze`, the integrators, the abstract
// controller step or the NN transformers. Verified leaves are re-checked by
// concrete simulation (`simulate_closed_loop`: the plant's `double`
// evaluation under RK4 and the controller's concrete `step`), and the leaf
// set is checked to tile the initial partition.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/reachability.hpp"
#include "core/verifier.hpp"

namespace perfbench {

/// Whether a leaf's verdict counts as verified for the property: a
/// `proved-safe` leaf always, and on a bounded-horizon property (empty
/// target set) also a `horizon-exhausted` leaf, which is safe for q steps.
[[nodiscard]] bool leaf_verified(const nncs::CellOutcome& leaf, bool bounded_horizon);

/// Share of the initial set's volume whose leaves are verified, in percent,
/// with the paper's weight 1/(2^k)^d for a leaf at depth d when refinement
/// bisects k dimensions.
[[nodiscard]] double verified_percent(const nncs::VerifyReport& report, std::size_t split_dims,
                                      bool bounded_horizon);

struct SoundnessConfig {
  /// Control steps q of the analysis: trajectories are followed for q·T.
  int control_steps = 1;
  /// RK4 substeps per control period.
  int substeps = 16;
  /// Uniform random starts per leaf, on top of the corners and the centre.
  int random_points = 2;
  std::uint64_t seed = 0;
  bool bounded_horizon = false;
};

struct Violation {
  std::size_t leaf = 0;  ///< index into the checked leaf vector
  nncs::Vec start;
  std::string what;
};

struct SoundnessReport {
  std::size_t leaves_checked = 0;
  std::size_t trajectories = 0;
  std::vector<Violation> violations;
};

/// The concrete starts taken from `box`: every corner over its
/// non-degenerate dimensions, the centre, then `random_points` uniform
/// points drawn from a generator seeded with (seed, leaf).
[[nodiscard]] std::vector<nncs::Vec> sample_starts(const nncs::Box& box, int random_points,
                                                   std::uint64_t seed, std::size_t leaf);

/// Simulate every start of every verified leaf. No trajectory may enter E at
/// any substep of q·T; on a property with a target set, every trajectory
/// from a `proved-safe` leaf must be in T at some sampling instant j <= q.
[[nodiscard]] SoundnessReport check_soundness(const nncs::ClosedLoop& system,
                                              const nncs::StateRegion& error,
                                              const nncs::StateRegion& target,
                                              const std::vector<nncs::CellOutcome>& leaves,
                                              const SoundnessConfig& config);

/// Root cells whose leaves do not tile them: a leaf outside its root, two
/// leaves overlapping, leaf volumes not summing to the root's, or no leaf.
/// Volumes are taken over the root's non-degenerate dimensions.
struct TilingReport {
  std::vector<std::size_t> bad_roots;
  std::vector<std::string> messages;
  [[nodiscard]] bool ok() const { return bad_roots.empty(); }
};

[[nodiscard]] TilingReport check_tiling(const nncs::SymbolicSet& roots,
                                        const std::vector<nncs::CellOutcome>& leaves);

/// The output checks of one verification report. A root cell whose leaves
/// do not tile it, or with a verified leaf that the soundness check
/// contradicts, makes the report incorrect. Such a root cell, and one with
/// an `enclosure-failure` or `cancelled` leaf, is a failed operation.
struct ReportCheck {
  bool correct = true;
  std::set<std::size_t> failed_roots;
  std::vector<std::string> notes;
};

[[nodiscard]] ReportCheck check_report(const nncs::ClosedLoop& system,
                                       const nncs::StateRegion& error,
                                       const nncs::StateRegion& target,
                                       const nncs::SymbolicSet& roots,
                                       const nncs::VerifyReport& report,
                                       const SoundnessConfig& config);

}  // namespace perfbench
