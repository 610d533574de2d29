#include "soundness.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "core/simulate.hpp"

namespace perfbench {

namespace {

std::string describe(const nncs::Vec& point) {
  std::ostringstream oss;
  oss.precision(17);
  oss << '(';
  for (std::size_t i = 0; i < point.size(); ++i) {
    oss << (i ? ", " : "") << point[i];
  }
  oss << ')';
  return oss.str();
}

/// Dimensions along which the box has positive width.
std::vector<std::size_t> extent_dims(const nncs::Box& box) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 0; d < box.dim(); ++d) {
    if (box[d].hi() > box[d].lo()) {
      dims.push_back(d);
    }
  }
  return dims;
}

double extent_volume(const nncs::Box& box, const std::vector<std::size_t>& dims) {
  double volume = 1.0;
  for (const std::size_t d : dims) {
    volume *= box[d].hi() - box[d].lo();
  }
  return volume;
}

}  // namespace

bool leaf_verified(const nncs::CellOutcome& leaf, bool bounded_horizon) {
  return leaf.outcome == nncs::ReachOutcome::kProvedSafe ||
         (bounded_horizon && leaf.outcome == nncs::ReachOutcome::kHorizonExhausted);
}

double verified_percent(const nncs::VerifyReport& report, std::size_t split_dims,
                        bool bounded_horizon) {
  if (report.root_cells == 0) {
    return 0.0;
  }
  const double factor = std::ldexp(1.0, static_cast<int>(split_dims));
  double sum = 0.0;
  for (const nncs::CellOutcome& leaf : report.leaves) {
    if (leaf_verified(leaf, bounded_horizon)) {
      sum += 1.0 / std::pow(factor, leaf.depth);
    }
  }
  return 100.0 * sum / static_cast<double>(report.root_cells);
}

std::vector<nncs::Vec> sample_starts(const nncs::Box& box, int random_points, std::uint64_t seed,
                                     std::size_t leaf) {
  const std::vector<std::size_t> dims = extent_dims(box);
  const nncs::Vec centre = box.midpoint();
  std::vector<nncs::Vec> starts;
  const std::size_t corners = std::size_t{1} << std::min<std::size_t>(dims.size(), 10);
  for (std::size_t mask = 0; mask < corners; ++mask) {
    nncs::Vec corner = centre;
    for (std::size_t k = 0; k < dims.size() && k < 10; ++k) {
      const std::size_t d = dims[k];
      corner[d] = (mask >> k) & 1U ? box[d].hi() : box[d].lo();
    }
    starts.push_back(std::move(corner));
  }
  starts.push_back(centre);
  // std::mt19937_64 is fully specified by the standard; the uniform draw is
  // done by hand so the points are identical across standard libraries.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + leaf);
  for (int r = 0; r < random_points; ++r) {
    nncs::Vec point = centre;
    for (const std::size_t d : dims) {
      const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      point[d] = box[d].lo() + unit * (box[d].hi() - box[d].lo());
    }
    starts.push_back(std::move(point));
  }
  return starts;
}

SoundnessReport check_soundness(const nncs::ClosedLoop& system, const nncs::StateRegion& error,
                                const nncs::StateRegion& target,
                                const std::vector<nncs::CellOutcome>& leaves,
                                const SoundnessConfig& config) {
  SoundnessReport report;
  const int q = config.control_steps;
  for (std::size_t index = 0; index < leaves.size(); ++index) {
    const nncs::CellOutcome& leaf = leaves[index];
    if (!leaf_verified(leaf, config.bounded_horizon)) {
      continue;
    }
    ++report.leaves_checked;
    const bool must_terminate =
        !config.bounded_horizon && leaf.outcome == nncs::ReachOutcome::kProvedSafe;
    for (const nncs::Vec& start :
         sample_starts(leaf.initial.box(), config.random_points, config.seed, index)) {
      ++report.trajectories;
      const nncs::SimOutcome sim = nncs::simulate_closed_loop(
          system, start, leaf.initial.command, error, target, q, config.substeps);
      const std::vector<nncs::TrajectoryPoint>& path = sim.trajectory;
      std::string failure;
      if (sim.reached_error) {
        const auto hit = std::find_if(path.begin(), path.end(), [&](const auto& p) {
          return error.contains_point(p.state, p.command);
        });
        std::ostringstream oss;
        oss << "enters E at t = " << hit->t;
        failure = hit->t == 0.0 ? "starts in E" : oss.str();
      } else if (must_terminate && !sim.reached_target) {
        // simulate_closed_loop samples T at jT for j < q; the analysis also
        // accepts j = q, under the command chosen from s((q-1)T).
        const std::size_t last_sample = static_cast<std::size_t>(q - 1) * config.substeps;
        const std::size_t command =
            system.controller->step(path[last_sample].state, path.back().command);
        if (!target.contains_point(path.back().state, command)) {
          failure = "is not in T at any sampling instant up to q";
        }
      }
      if (!failure.empty()) {
        report.violations.push_back(
            Violation{index, start, "start " + describe(start) + " " + failure});
      }
    }
  }
  return report;
}

TilingReport check_tiling(const nncs::SymbolicSet& roots,
                          const std::vector<nncs::CellOutcome>& leaves) {
  TilingReport report;
  std::vector<std::vector<const nncs::Box*>> by_root(roots.size());
  for (const nncs::CellOutcome& leaf : leaves) {
    if (leaf.root_index >= roots.size()) {
      report.messages.push_back("leaf names root " + std::to_string(leaf.root_index) +
                                " of " + std::to_string(roots.size()));
      report.bad_roots.push_back(leaf.root_index);
      continue;
    }
    by_root[leaf.root_index].push_back(&leaf.initial.box());
  }
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const nncs::Box& root = roots[r].box();
    const std::vector<std::size_t> dims = extent_dims(root);
    const std::vector<const nncs::Box*>& parts = by_root[r];
    std::string problem;
    if (parts.empty()) {
      problem = "has no leaf";
    }
    double covered = 0.0;
    for (std::size_t a = 0; a < parts.size() && problem.empty(); ++a) {
      if (!root.contains(*parts[a])) {
        problem = "has a leaf outside it";
      }
      covered += extent_volume(*parts[a], dims);
      for (std::size_t b = a + 1; b < parts.size() && problem.empty(); ++b) {
        double overlap = 1.0;
        for (const std::size_t d : dims) {
          const double lo = std::max((*parts[a])[d].lo(), (*parts[b])[d].lo());
          const double hi = std::min((*parts[a])[d].hi(), (*parts[b])[d].hi());
          overlap *= std::max(0.0, hi - lo);
        }
        if (overlap > 0.0) {
          problem = "has overlapping leaves";
        }
      }
    }
    const double volume = extent_volume(root, dims);
    if (problem.empty() && std::abs(covered - volume) > 1e-9 * volume) {
      std::ostringstream oss;
      oss.precision(17);
      oss << "leaf volumes sum to " << covered << ", root volume is " << volume;
      problem = oss.str();
    }
    if (!problem.empty()) {
      report.bad_roots.push_back(r);
      report.messages.push_back("root " + std::to_string(r) + " " + problem);
    }
  }
  return report;
}

ReportCheck check_report(const nncs::ClosedLoop& system, const nncs::StateRegion& error,
                         const nncs::StateRegion& target, const nncs::SymbolicSet& roots,
                         const nncs::VerifyReport& report, const SoundnessConfig& config) {
  ReportCheck out;
  const TilingReport tiling = check_tiling(roots, report.leaves);
  for (const std::string& message : tiling.messages) {
    out.correct = false;
    out.notes.push_back("tiling: " + message);
  }
  for (const nncs::CellOutcome& leaf : report.leaves) {
    if (leaf.outcome == nncs::ReachOutcome::kEnclosureFailure ||
        leaf.outcome == nncs::ReachOutcome::kCancelled) {
      out.failed_roots.insert(leaf.root_index);
      out.notes.push_back("root " + std::to_string(leaf.root_index) + " has a " +
                          nncs::to_string(leaf.outcome) + " leaf");
    }
  }
  const SoundnessReport soundness = check_soundness(system, error, target, report.leaves, config);
  for (const Violation& v : soundness.violations) {
    const nncs::CellOutcome& leaf = report.leaves[v.leaf];
    out.correct = false;
    out.failed_roots.insert(leaf.root_index);
    out.notes.push_back("soundness: root " + std::to_string(leaf.root_index) + " leaf " +
                        std::to_string(v.leaf) + " (" + nncs::to_string(leaf.outcome) +
                        "): " + v.what);
  }
  out.notes.push_back("soundness: " + std::to_string(soundness.trajectories) +
                      " trajectories from " + std::to_string(soundness.leaves_checked) +
                      " verified leaves, " + std::to_string(soundness.violations.size()) +
                      " violations");
  return out;
}

}  // namespace perfbench
