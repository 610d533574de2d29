#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "calibration.hpp"
#include "core/engine.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "soundness.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Byte-exact snapshot of a network cache directory, plus modification
/// times, so a cache that was rewritten with identical content shows too.
using DirSnapshot = std::map<std::string, std::pair<std::string, std::filesystem::file_time_type>>;

DirSnapshot snapshot(const std::filesystem::path& dir) {
  DirSnapshot snap;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    snap[entry.path().filename().string()] = {std::move(bytes), entry.last_write_time()};
  }
  return snap;
}

/// One assembled scenario: a fresh controller (and so a fresh NN query
/// cache) per round, so every round does the same work.
struct Assembled {
  nncs::scenario::System system;
  std::unique_ptr<nncs::StateRegion> error;
  std::unique_ptr<nncs::StateRegion> target;
  nncs::SymbolicSet cells;
  double setup_s = 0.0;
  double make_system_s = 0.0;
};

struct RoundResult {
  nncs::EngineResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t cells_refined = 0;
  TraceSummary trace;
  nncs::NnQueryCache::Stats cache;
  std::uint64_t relaxed_relus = 0;
};

class Runner {
 public:
  Runner(const Workload& workload, const RunOptions& options)
      : workload_(workload),
        options_(options),
        scenario_(nncs::scenario::Registry::global().at(workload.scenario)),
        integrator_(nncs::TaylorIntegrator::Config{scenario_.default_taylor_order(), {}}) {
    nets_dir_ = options.work_dir / "nets";
    std::filesystem::remove_all(nets_dir_);
    std::filesystem::create_directories(options.work_dir);
    const std::filesystem::path source = options.root / workload.nets_source;
    if (!std::filesystem::is_directory(source)) {
      throw std::runtime_error("network cache not found: " + source.string());
    }
    std::filesystem::copy(source, nets_dir_, std::filesystem::copy_options::recursive);
    nets_snapshot_ = snapshot(nets_dir_);

    config_.verify = scenario_.default_config();
    config_.verify.max_refinement_depth = workload.depth;
    config_.verify.threads = workload.threads;
    if (workload.domain) {
      config_.verify.reach.domain = *workload.domain;
    }
    config_.verify.reach.integrator = &integrator_;
    config_.verify.reach.nn_cache = system_config().nn_cache;
  }

  [[nodiscard]] nncs::scenario::SystemConfig system_config() const {
    nncs::scenario::SystemConfig config;
    config.nets_dir = nets_dir_;
    return config;
  }

  Assembled assemble() const {
    Assembled out;
    const Clock::time_point start = Clock::now();
    out.system = scenario_.make_system(system_config());
    out.make_system_s = seconds_since(start);
    out.error = scenario_.make_error_region();
    out.target = scenario_.make_target_region();
    out.cells = nncs::scenario::to_symbolic_set(scenario_.make_cells(workload_.partition));
    out.setup_s = seconds_since(start);
    if (snapshot(nets_dir_) != nets_snapshot_) {
      throw std::runtime_error(
          "make_system rewrote the copied network cache (stamp mismatch: it retrained), so "
          "set-up time would include training");
    }
    return out;
  }

  RoundResult plain_round(const Assembled& a) const {
    RoundResult round;
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    const nncs::VerificationEngine engine(a.system.loop, *a.error, *a.target);
    round.result = engine.run(a.cells, config_);
    round.wall_s = seconds_since(start);
    round.cpu_s = process_cpu_seconds() - cpu0;
    return round;
  }

  RoundResult traced_round(const Assembled& a) const {
    const TracedDynamics plant(*a.system.plant);
    const TracedController controller(*a.system.controller);
    const TracedIntegrator integrator(integrator_);
    const TracedRegion error(*a.error);
    const TracedRegion target(*a.target);
    const nncs::ClosedLoop loop{&plant, &controller, a.system.loop.period};
    nncs::EngineConfig config = config_;
    config.verify.reach.integrator = &integrator;
    RoundResult round;
    config.on_progress = [&round](const nncs::EngineProgress& p) {
      round.cells_refined = p.cells_refined;
    };

    nncs::obs::Registry::instance().reset();
    nncs::obs::set_enabled(true);
    TraceStore::instance().begin_round();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now();
    const nncs::VerificationEngine engine(loop, error, target);
    round.result = engine.run(a.cells, config);
    round.wall_s = seconds_since(start);
    round.cpu_s = process_cpu_seconds() - cpu0;
    round.trace = TraceStore::instance().collect();
    nncs::obs::set_enabled(false);
    round.relaxed_relus =
        nncs::obs::Registry::instance().snapshot().counter("nn.relaxed_relus");
    if (const nncs::NnQueryCache* cache = a.system.controller->query_cache()) {
      round.cache = cache->stats();
    }
    return round;
  }

  RunResult run() {
    const bool bounded = dynamic_cast<const nncs::EmptyRegion*>(
                             scenario_.make_target_region().get()) != nullptr;
    std::vector<double> setup_samples;
    // Only the first round's report is kept: later rounds are compared with
    // it leaf for leaf as they finish, so memory holds one round's results.
    std::optional<nncs::VerifyReport> reference;
    bool same = true;
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> traced_wall;
    std::vector<std::vector<Metric>> layer_rounds;
    std::uint64_t rounds = 0;
    double last_round_s = 0.0;
    std::vector<double> setup_scaled;
    std::vector<double> make_system_scaled;
    std::vector<double> round_slowdowns;
    const Clock::time_point start = Clock::now();
    for (;; ++rounds) {
      // Set up repeatedly before each round, for a tenth of the previous
      // round's unscaled wall time (kFirstSetups times before the first
      // round), and verify the last one: a millisecond-scale time gets many
      // samples, spread over the whole run like the rounds. The host's speed
      // is sampled next to every measured interval (see calibration.hpp): on
      // one thread before each set-up, on the workload's threads after each
      // round.
      std::optional<Assembled> assembled;
      const Clock::time_point setups_start = Clock::now();
      for (int i = 0; rounds == 0 ? i < kFirstSetups
                                  : i == 0 || seconds_since(setups_start) < 0.1 * last_round_s;
           ++i) {
        const double slowdown = host_slowdown(1, kSetupChunks);
        assembled.emplace(assemble());
        setup_samples.push_back(assembled->setup_s);
        setup_scaled.push_back(assembled->setup_s / slowdown);
        make_system_scaled.push_back(assembled->make_system_s / slowdown);
      }
      const Assembled& a = *assembled;
      // A traced run alternates plain and traced rounds, starting plain.
      const bool traced_turn = options_.trace && rounds % 2 == 1;
      RoundResult r = traced_turn ? traced_round(a) : plain_round(a);
      round_slowdowns.push_back(host_slowdown(workload_.threads, kRoundChunks));
      last_round_s = r.wall_s;
      if (!r.result.complete()) {
        throw std::runtime_error("verification run did not complete");
      }
      if (traced_turn) {
        traced_wall.push_back(r.wall_s);
        layer_rounds.push_back(layer_values(r));
      } else {
        wall.push_back(r.wall_s);
        cpu.push_back(r.cpu_s);
      }
      if (!reference) {
        roots_ = a.cells;
        reference = std::move(r.result.report);
      } else {
        same = same && same_leaves(*reference, r.result.report);
      }
      if ((!options_.trace || !traced_wall.empty()) &&
          seconds_since(start) >= options_.seconds) {
        ++rounds;
        break;
      }
    }

    RunResult out;
    check_outputs(*reference, bounded, out);
    if (!same) {
      out.correct = false;
      out.notes.push_back("a round's leaves differ from the first round's");
    }
    out.attempted = rounds * roots_.size();
    out.failed = rounds * failed_roots_.size();

    // Times are reported at the nominal host speed. A set-up sample is
    // divided by the slowdown measured just before it; the rounds' median
    // times by the median slowdown measured after them.
    const double round_slowdown = median(round_slowdowns);
    std::ostringstream rounds_note;
    rounds_note << "unscaled: set-up median " << median(setup_samples)
                << " s; plain rounds (wall s / cpu s):";
    for (std::size_t k = 0; k < wall.size(); ++k) {
      rounds_note << ' ' << wall[k] << '/' << cpu[k];
    }
    rounds_note << "; host slowdown " << round_slowdown << " on " << workload_.threads
                << " threads";
    out.notes.push_back(rounds_note.str());
    if (!options_.trace) {
      out.metrics.push_back({"setup_s", median(setup_scaled), "s"});
      out.metrics.push_back({"verify_s", median(wall) / round_slowdown, "s"});
      out.metrics.push_back({"verify_cpu_s", median(cpu) / round_slowdown, "s"});
      out.metrics.push_back(
          {"verified_pct",
           verified_percent(*reference, config_.verify.split_dims.size(), bounded), "%"});
      out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
      return out;
    }
    out.metrics.push_back({"scenario.make_system_s", median(make_system_scaled), "s"});
    // Per-layer values are medians over the traced rounds.
    for (std::size_t m = 0; m < layer_rounds.front().size(); ++m) {
      std::vector<double> samples;
      for (const auto& values : layer_rounds) {
        samples.push_back(values[m].value);
      }
      out.metrics.push_back({layer_rounds.front()[m].name, median(samples),
                             layer_rounds.front()[m].unit});
    }
    out.metrics.push_back({"trace.overhead", median(traced_wall) / median(wall), "ratio"});
    if (!options_.spans_out.empty()) {
      std::filesystem::create_directories(options_.spans_out.parent_path());
      TraceStore::instance().write_spans(options_.spans_out);
    }
    return out;
  }

 private:
  static constexpr int kFirstSetups = 20;

  void check_outputs(const nncs::VerifyReport& report, bool bounded, RunResult& out) {
    // Concrete re-check on the plain (untraced) system.
    const Assembled a = assemble();
    SoundnessConfig sc;
    sc.control_steps = config_.verify.reach.control_steps;
    sc.seed = options_.seed;
    sc.bounded_horizon = bounded;
    ReportCheck check = check_report(a.system.loop, *a.error, *a.target, roots_, report, sc);
    out.correct = out.correct && check.correct;
    failed_roots_ = std::move(check.failed_roots);
    out.notes.insert(out.notes.end(), check.notes.begin(), check.notes.end());
    // The recomputed coverage must match the program's own on properties
    // with a target set (on bounded-horizon ones the program counts only
    // proved-safe leaves).
    const double pct = verified_percent(report, config_.verify.split_dims.size(), bounded);
    if (!bounded && config_.verify.split_strategy == nncs::SplitStrategy::kAllDims &&
        std::abs(pct - report.coverage_percent) > 1e-9 * std::max(1.0, pct)) {
      out.correct = false;
      out.notes.push_back("verified_pct " + std::to_string(pct) +
                          " differs from the program's coverage " +
                          std::to_string(report.coverage_percent));
    }
  }

  static bool same_leaves(const nncs::VerifyReport& a, const nncs::VerifyReport& b) {
    if (a.leaves.size() != b.leaves.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.leaves.size(); ++i) {
      const nncs::CellOutcome& x = a.leaves[i];
      const nncs::CellOutcome& y = b.leaves[i];
      if (x.root_index != y.root_index || x.depth != y.depth || x.outcome != y.outcome ||
          x.initial.command != y.initial.command || !(x.initial.box() == y.initial.box()) ||
          x.stats.steps_executed != y.stats.steps_executed) {
        return false;
      }
    }
    return true;
  }

  /// The per-layer metrics of one traced round.
  [[nodiscard]] std::vector<Metric> layer_values(const RoundResult& r) const {
    std::vector<Metric> values;
    auto put = [&](const char* name, double value, const char* unit) {
      values.push_back({name, value, unit});
    };
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const double threads = static_cast<double>(workload_.threads);
    const nncs::VerifyReport& report = r.result.report;
    const nncs::ReachStats all = nncs::aggregate_stats(report);
    const Counts& c = r.trace.counts;
    const auto& busy = r.trace.busy_s;
    auto layer = [](Layer l) { return static_cast<std::size_t>(l); };
    std::vector<double> cell_ms;
    for (const nncs::CellOutcome& leaf : report.leaves) {
      cell_ms.push_back(leaf.stats.seconds * 1e3);
    }
    const double ode_steps = static_cast<double>(c.ode_steps + c.ode_affine_steps);

    put("engine.cell_analyses", static_cast<double>(report.leaves.size() + r.cells_refined),
        "count");
    put("engine.splits", static_cast<double>(r.cells_refined), "count");
    put("engine.cell_p50_ms", percentile(cell_ms, 0.5), "ms");
    put("engine.cell_p90_ms", percentile(cell_ms, 0.9), "ms");
    put("engine.cell_samples", static_cast<double>(cell_ms.size()), "count");
    put("engine.busy_s", all.seconds, "s");
    put("engine.parallel_eff", ratio(all.seconds, threads * r.wall_s), "ratio");
    put("engine.outside_cells_s", threads * r.wall_s - all.seconds, "s");
    put("ode.steps", static_cast<double>(c.ode_steps), "count");
    put("ode.busy_s", busy[layer(Layer::kOdeStep)], "s");
    put("ode.self_s", r.trace.self_s[layer(Layer::kOdeStep)] +
                          r.trace.self_s[layer(Layer::kOdeAffineStep)],
        "s");
    put("ode.step_us",
        1e6 * ratio(busy[layer(Layer::kOdeStep)], static_cast<double>(c.ode_steps)), "us");
    put("ode.affine_steps", static_cast<double>(c.ode_affine_steps), "count");
    put("ode.affine_busy_s", busy[layer(Layer::kOdeAffineStep)], "s");
    put("ode.failed_steps", static_cast<double>(c.ode_failed_steps + c.ode_affine_failed_steps),
        "count");
    put("ode.f_taylor_evals_per_step", ratio(static_cast<double>(c.f_taylor_evals), ode_steps),
        "ratio");
    put("ode.f_interval_evals_per_step",
        ratio(static_cast<double>(c.f_interval_evals), ode_steps), "ratio");
    put("controller.states", static_cast<double>(c.controller_states), "count");
    put("controller.states_per_call",
        ratio(static_cast<double>(c.controller_states), static_cast<double>(c.controller_calls)),
        "ratio");
    put("controller.busy_s", busy[layer(Layer::kController)], "s");
    put("controller.state_us",
        1e6 * ratio(busy[layer(Layer::kController)], static_cast<double>(c.controller_states)),
        "us");
    put("controller.commands_per_state",
        ratio(static_cast<double>(c.controller_commands),
              static_cast<double>(c.controller_states)),
        "ratio");
    put("nn.cache.lookups", static_cast<double>(r.cache.lookups()), "count");
    put("nn.cache.hit_ratio", r.cache.hit_rate(), "ratio");
    put("nn.cache.bytes", static_cast<double>(r.cache.bytes), "bytes");
    put("nn.relaxed_relus", static_cast<double>(r.relaxed_relus), "count");
    put("reach.joins", static_cast<double>(all.joins), "count");
    put("reach.join_s", all.phases.join_seconds, "s");
    put("specs.checks", static_cast<double>(c.region_checks), "count");
    put("specs.check_s", busy[layer(Layer::kSpecs)], "s");
    return values;
  }

  const Workload& workload_;
  const RunOptions& options_;
  const nncs::scenario::Scenario& scenario_;
  const nncs::TaylorIntegrator integrator_;
  std::filesystem::path nets_dir_;
  DirSnapshot nets_snapshot_;
  nncs::EngineConfig config_;
  nncs::SymbolicSet roots_;
  std::set<std::size_t> failed_roots_;
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // The paper's operating point (q = 20, M = 10, order 4, Γ = 5 are the
      // scenario defaults), on 4 engine threads.
      {"acasxu-paper", "acasxu", "perfbench/nets/acasxu", {6, 4}, 1, 4, std::nullopt},
      // The relational path: zonotope loop domain, many short cells. On 4
      // threads: on 1 its rounds varied twice as much (see README.md).
      {"pendulum-zonotope", "pendulum", "pendulum_nets_cache", {96, 96}, 2, 4,
       nncs::LoopDomain::kZonotope},
      // Bounded-horizon property, join-heavy, memo cache with evictions.
      {"cruise-bounded", "cruise_control", "cruise_control_nets_cache", {10, 8}, 1, 1,
       std::nullopt},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

RunResult run_workload(const Workload& workload, const RunOptions& options) {
  Runner runner(workload, options);
  return runner.run();
}

}  // namespace perfbench
