// Tests of the benchmark's own checks and layer wrappers.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "calibration.hpp"
#include "core/engine.hpp"
#include "layers.hpp"
#include "scenario/scenario.hpp"
#include "soundness.hpp"

namespace perfbench {
namespace {

using nncs::Box;
using nncs::Interval;

/// 1-D plant x' = u.
std::unique_ptr<nncs::Dynamics> drift_plant() {
  return nncs::make_dynamics(1, 1, [](auto s, auto u, auto out) {
    (void)s;
    out[0] = u[0];
  });
}

/// Always commands +1; the abstract step is exact.
class ConstantController final : public nncs::Controller {
 public:
  [[nodiscard]] const nncs::CommandSet& commands() const override { return commands_; }
  [[nodiscard]] std::size_t state_dim() const override { return 1; }
  [[nodiscard]] std::size_t step(const nncs::Vec&, std::size_t) const override { return 0; }
  [[nodiscard]] nncs::AbstractControlStep step_abstract(const Box& state,
                                                        std::size_t) const override {
    return {{0}, state, state};
  }

 private:
  nncs::CommandSet commands_{{{1.0}}};
};

nncs::CellOutcome leaf(double lo, double hi, nncs::ReachOutcome outcome, int depth = 0,
                       std::size_t root = 0) {
  nncs::CellOutcome out;
  out.initial = nncs::SymbolicState{Box{{Interval{lo, hi}}}, 0};
  out.outcome = outcome;
  out.depth = depth;
  out.root_index = root;
  return out;
}

struct Toy {
  std::unique_ptr<nncs::Dynamics> plant = drift_plant();
  ConstantController controller;
  nncs::ClosedLoop loop{plant.get(), &controller, 1.0};
  nncs::BoxRegion error{{{0, Interval{5.0, 10.0}}}};
  nncs::BoxRegion target{{{0, Interval{-100.0, -50.0}}}};
  nncs::EmptyRegion nothing;
};

TEST(Soundness, ReportsStartThatCollides) {
  Toy toy;
  SoundnessConfig config;
  config.control_steps = 10;
  config.bounded_horizon = true;
  // x(t) = x0 + t: from [0, 1] the plant reaches E = [5, 10] within 10 s;
  // from [-30, -29] it never does.
  const std::vector<nncs::CellOutcome> leaves = {
      leaf(0.0, 1.0, nncs::ReachOutcome::kHorizonExhausted),
      leaf(-30.0, -29.0, nncs::ReachOutcome::kHorizonExhausted)};
  const SoundnessReport report =
      check_soundness(toy.loop, toy.error, toy.nothing, leaves, config);
  EXPECT_EQ(report.leaves_checked, 2U);
  ASSERT_FALSE(report.violations.empty());
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.leaf, 0U);
    EXPECT_NE(v.what.find("enters E"), std::string::npos) << v.what;
  }
  // Both corners and the centre of leaf 0 collide, plus its random points.
  EXPECT_EQ(report.violations.size(), 3U + static_cast<std::size_t>(config.random_points));
}

TEST(Soundness, ReportsStartInsideErrorSet) {
  Toy toy;
  SoundnessConfig config;
  config.control_steps = 1;
  config.bounded_horizon = true;
  const SoundnessReport report = check_soundness(
      toy.loop, toy.error, toy.nothing,
      {leaf(5.5, 6.0, nncs::ReachOutcome::kHorizonExhausted)}, config);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().what.find("starts in E"), std::string::npos);
}

TEST(Soundness, ProvedLeafMustReachTarget) {
  Toy toy;
  SoundnessConfig config;
  config.control_steps = 5;
  // Moving right from [-60, -55] stays in T = [-100, -50] at t = 0: proved.
  // Moving right from [-40, -39] never enters T: a false proof.
  const std::vector<nncs::CellOutcome> leaves = {
      leaf(-60.0, -55.0, nncs::ReachOutcome::kProvedSafe),
      leaf(-40.0, -39.0, nncs::ReachOutcome::kProvedSafe),
      leaf(-40.0, -39.0, nncs::ReachOutcome::kHorizonExhausted)};
  const SoundnessReport report = check_soundness(toy.loop, toy.error, toy.target, leaves, config);
  // Horizon-exhausted leaves are not verified when a target set exists.
  EXPECT_EQ(report.leaves_checked, 2U);
  ASSERT_FALSE(report.violations.empty());
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.leaf, 1U);
    EXPECT_NE(v.what.find("not in T"), std::string::npos) << v.what;
  }
}

TEST(Soundness, ContradictedLeafMakesReportIncorrect) {
  Toy toy;
  SoundnessConfig config;
  config.control_steps = 5;
  // Root 0 is proved correctly; root 1 is a false proof (it never reaches T).
  const nncs::SymbolicSet roots = {nncs::SymbolicState{Box{{Interval{-60.0, -55.0}}}, 0},
                                   nncs::SymbolicState{Box{{Interval{-40.0, -39.0}}}, 0}};
  nncs::VerifyReport report;
  report.root_cells = 2;
  report.leaves = {leaf(-60.0, -55.0, nncs::ReachOutcome::kProvedSafe, 0, 0),
                   leaf(-40.0, -39.0, nncs::ReachOutcome::kHorizonExhausted, 0, 1)};
  const ReportCheck sound = check_report(toy.loop, toy.error, toy.target, roots, report, config);
  EXPECT_TRUE(sound.correct);
  EXPECT_TRUE(sound.failed_roots.empty());

  report.leaves[1].outcome = nncs::ReachOutcome::kProvedSafe;
  const ReportCheck contradicted =
      check_report(toy.loop, toy.error, toy.target, roots, report, config);
  EXPECT_FALSE(contradicted.correct);
  EXPECT_EQ(contradicted.failed_roots, std::set<std::size_t>{1});
}

TEST(Soundness, SamplesAreSeededAndInside) {
  const Box box{{Interval{0.0, 1.0}, Interval{2.0, 2.0}, Interval{-3.0, 3.0}}};
  const auto a = sample_starts(box, 3, 7, 11);
  const auto b = sample_starts(box, 3, 7, 11);
  const auto c = sample_starts(box, 3, 8, 11);
  // 4 corners (the degenerate dimension has one value), the centre, 3 random.
  ASSERT_EQ(a.size(), 8U);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const auto& point : a) {
    EXPECT_TRUE(box.contains(point));
  }
}

TEST(Tiling, AcceptsExactSplitAndRejectsMissingChild) {
  const nncs::SymbolicSet roots = {
      nncs::SymbolicState{Box{{Interval{0.0, 2.0}, Interval{0.0, 2.0}}}, 0}};
  std::vector<nncs::CellOutcome> leaves;
  for (const Box& child : roots[0].box().split({0, 1})) {
    nncs::CellOutcome out;
    out.initial = nncs::SymbolicState{child, 0};
    out.depth = 1;
    leaves.push_back(out);
  }
  EXPECT_TRUE(check_tiling(roots, leaves).ok());

  std::vector<nncs::CellOutcome> missing(leaves.begin(), leaves.end() - 1);
  const TilingReport report = check_tiling(roots, missing);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.bad_roots.size(), 1U);
  EXPECT_NE(report.messages.front().find("volumes"), std::string::npos);

  std::vector<nncs::CellOutcome> overlapping = leaves;
  overlapping.back().initial = leaves.front().initial;
  EXPECT_FALSE(check_tiling(roots, overlapping).ok());

  std::vector<nncs::CellOutcome> outside = leaves;
  outside.back().initial = nncs::SymbolicState{Box{{Interval{1.0, 3.0}, Interval{1.0, 2.0}}}, 0};
  EXPECT_FALSE(check_tiling(roots, outside).ok());

  EXPECT_FALSE(check_tiling(roots, {}).ok());
}

TEST(VerifiedPercent, WeighsLeavesByDepth) {
  nncs::VerifyReport report;
  report.root_cells = 2;
  // Root 0 proved whole; root 1 split in 4 (k = 2), one child proved and
  // one horizon-exhausted.
  report.leaves = {leaf(0, 1, nncs::ReachOutcome::kProvedSafe, 0, 0),
                   leaf(1, 2, nncs::ReachOutcome::kProvedSafe, 1, 1),
                   leaf(2, 3, nncs::ReachOutcome::kHorizonExhausted, 1, 1),
                   leaf(3, 4, nncs::ReachOutcome::kErrorReachable, 1, 1)};
  EXPECT_DOUBLE_EQ(verified_percent(report, 2, false), 100.0 * (1.0 + 0.25) / 2.0);
  EXPECT_DOUBLE_EQ(verified_percent(report, 2, true), 100.0 * (1.0 + 0.5) / 2.0);
}

TEST(Calibration, WorkIsFixedAndTimed) {
  // The same chunk does the same work every time, whatever runs around it.
  EXPECT_EQ(calibration_chunk(3), calibration_chunk(3));
  EXPECT_NE(calibration_chunk(3), calibration_chunk(4));
  EXPECT_GT(host_slowdown(1, kSetupChunks), 0.0);
  EXPECT_GT(host_slowdown(2, kSetupChunks), 0.0);
}

TEST(Layers, WrappersForwardAndCount) {
  const nncs::LinearPart linear{{0.0}, {1.0}, nullptr};
  auto plant = nncs::make_dynamics(
      1, 1, [](auto s, auto u, auto out) { out[0] = u[0] + 0.0 * s[0]; }, linear);
  const TracedDynamics traced_plant(*plant);
  EXPECT_EQ(traced_plant.linear_part(), plant->linear_part());

  TraceStore::instance().begin_round();
  const nncs::TaylorIntegrator taylor;
  const TracedIntegrator integrator(taylor);
  const auto step = integrator.step(traced_plant, Box{{Interval{0.0, 1.0}}}, {1.0}, 0.5);
  const auto plain = taylor.step(*plant, Box{{Interval{0.0, 1.0}}}, {1.0}, 0.5);
  ASSERT_TRUE(step && plain);
  EXPECT_EQ(step->end, plain->end);
  EXPECT_EQ(step->flow, plain->flow);

  ConstantController inner;
  const TracedController controller(inner);
  const auto batch = controller.step_abstract_batch(
      {nncs::AbstractState{Box{{Interval{0.0, 1.0}}}}, nncs::AbstractState{Box{{Interval{2.0}}}}},
      {0, 0});
  EXPECT_EQ(batch.size(), 2U);
  const TraceSummary summary = TraceStore::instance().collect();
  EXPECT_EQ(summary.counts.ode_steps, 1U);
  EXPECT_EQ(summary.counts.f_taylor_evals, 2U * 4U);  // order 4, prefix + remainder
  EXPECT_GT(summary.counts.f_interval_evals, 0U);
  EXPECT_EQ(summary.counts.controller_calls, 1U);
  EXPECT_EQ(summary.counts.controller_states, 2U);
  const auto ode = static_cast<std::size_t>(Layer::kOdeStep);
  const auto f = static_cast<std::size_t>(Layer::kPlant);
  EXPECT_GE(summary.busy_s[ode], summary.busy_s[f]);
  EXPECT_NEAR(summary.self_s[ode], summary.busy_s[ode] - summary.busy_s[f], 1e-9);
}

TEST(Layers, TracedEngineRunGivesPlainLeaves) {
  // A small pendulum partition, run plain and through every wrapper.
  const auto& scenario = nncs::scenario::Registry::global().at("pendulum");
  const std::filesystem::path nets =
      std::filesystem::path(PERFBENCH_TEST_WORK_DIR) / "pendulum_nets";
  std::filesystem::remove_all(nets);
  std::filesystem::copy(std::filesystem::path(PERFBENCH_REPO_ROOT) / "pendulum_nets_cache", nets);
  nncs::scenario::SystemConfig system_config;
  system_config.nets_dir = nets;
  const auto system = scenario.make_system(system_config);
  const auto error = scenario.make_error_region();
  const auto target = scenario.make_target_region();
  const auto cells = nncs::scenario::to_symbolic_set(scenario.make_cells({4, 4}));
  const nncs::TaylorIntegrator taylor;
  nncs::EngineConfig config;
  config.verify = scenario.default_config();
  config.verify.reach.integrator = &taylor;
  config.verify.max_refinement_depth = 1;
  config.verify.threads = 4;  // the per-thread span buffers under contention
  const auto plain = nncs::VerificationEngine(system.loop, *error, *target).run(cells, config);

  const TracedDynamics plant(*system.plant);
  const TracedController controller(*system.controller);
  const TracedIntegrator integrator(taylor);
  const TracedRegion traced_error(*error);
  const TracedRegion traced_target(*target);
  const nncs::ClosedLoop loop{&plant, &controller, system.loop.period};
  config.verify.reach.integrator = &integrator;
  TraceStore::instance().begin_round();
  const auto traced =
      nncs::VerificationEngine(loop, traced_error, traced_target).run(cells, config);
  const TraceSummary summary = TraceStore::instance().collect();

  ASSERT_EQ(plain.report.leaves.size(), traced.report.leaves.size());
  for (std::size_t i = 0; i < plain.report.leaves.size(); ++i) {
    EXPECT_EQ(plain.report.leaves[i].initial.box(), traced.report.leaves[i].initial.box());
    EXPECT_EQ(plain.report.leaves[i].outcome, traced.report.leaves[i].outcome);
  }
  EXPECT_GT(summary.counts.ode_affine_steps, 0U);
  EXPECT_GT(summary.counts.controller_states, 0U);
  EXPECT_GT(summary.counts.region_checks, 0U);
}

}  // namespace
}  // namespace perfbench
