#include "acas_bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/engine.hpp"
#include "core/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "scenario/scenario.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace nncs::bench {

namespace {

const scenario::Scenario& acas_scenario() { return scenario::Registry::global().at("acasxu"); }

}  // namespace

AcasSystem make_acas_system(NnDomain domain) {
  scenario::SystemConfig config;
  config.domain = domain;
  config.nn_cache = nn_cache_config_from_env();
  scenario::System assembled = acas_scenario().make_system(config);
  AcasSystem system;
  system.plant = std::move(assembled.plant);
  system.controller = std::move(assembled.controller);
  system.loop = assembled.loop;
  return system;
}

BenchScale default_scale() {
  const double scale = env_scale();
  BenchScale s;
  s.num_arcs = std::max<std::size_t>(8, static_cast<std::size_t>(32 * scale));
  s.num_headings = std::max<std::size_t>(4, static_cast<std::size_t>(8 * scale));
  s.max_depth = 1;
  return s;
}

namespace {

std::filesystem::path cache_path(std::size_t arcs, std::size_t headings, int depth) {
  std::ostringstream oss;
  oss << "acas_fig9_cache_" << arcs << "x" << headings << "d" << depth << ".csv";
  return oss.str();
}

bool load_cache(const std::filesystem::path& path, AcasRunResult& out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string header;
  if (!std::getline(in, header)) {
    return false;
  }
  std::istringstream hs(header);
  std::size_t depth_levels = 0;
  hs >> out.root_cells >> out.coverage_percent >> out.wall_seconds >> depth_levels;
  if (!hs) {
    return false;
  }
  out.proved_by_depth.resize(depth_levels);
  for (auto& n : out.proved_by_depth) {
    hs >> n;
  }
  // Aggregate-stats columns were appended later; caches written before then
  // simply leave `aggregate` zeroed.
  ReachStats& agg = out.aggregate;
  if (!(hs >> agg.steps_executed >> agg.joins >> agg.max_states >> agg.total_simulations >>
        agg.seconds >> agg.phases.simulate_seconds >> agg.phases.controller_seconds >>
        agg.phases.join_seconds >> agg.phases.check_seconds)) {
    agg = ReachStats{};
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    CellRecord rec;
    int proved = 0;
    ls >> rec.root_index >> rec.depth >> rec.bearing_lo >> rec.bearing_hi >> proved >>
        rec.outcome >> rec.seconds;
    if (!ls) {
      return false;
    }
    rec.proved = proved != 0;
    out.leaves.push_back(std::move(rec));
  }
  return !out.leaves.empty();
}

void save_cache(const std::filesystem::path& path, const AcasRunResult& result) {
  std::ofstream outf(path);
  outf << result.root_cells << ' ' << result.coverage_percent << ' ' << result.wall_seconds
       << ' ' << result.proved_by_depth.size();
  for (const auto n : result.proved_by_depth) {
    outf << ' ' << n;
  }
  const ReachStats& agg = result.aggregate;
  outf << ' ' << agg.steps_executed << ' ' << agg.joins << ' ' << agg.max_states << ' '
       << agg.total_simulations << ' ' << agg.seconds << ' ' << agg.phases.simulate_seconds
       << ' ' << agg.phases.controller_seconds << ' ' << agg.phases.join_seconds << ' '
       << agg.phases.check_seconds;
  outf << '\n';
  for (const auto& rec : result.leaves) {
    outf << rec.root_index << ' ' << rec.depth << ' ' << rec.bearing_lo << ' '
         << rec.bearing_hi << ' ' << (rec.proved ? 1 : 0) << ' ' << rec.outcome << ' '
         << rec.seconds << '\n';
  }
}

}  // namespace

AcasRunResult run_or_load_verification(std::size_t num_arcs, std::size_t num_headings,
                                       int max_depth) {
  AcasRunResult result;
  result.num_arcs = num_arcs;
  result.num_headings = num_headings;
  result.max_depth = max_depth;
  // Stamp scenario identity into provenance even on the cache-hit path, so
  // every BENCH_*.json carries the workload fingerprint it reports on.
  const scenario::Scenario& scen = acas_scenario();
  const scenario::Partition partition =
      scenario::resolve(scen, scenario::Partition{num_arcs, num_headings});
  obs::set_scenario(scen.name(), scenario::fingerprint(scen, partition));
  const auto path = cache_path(num_arcs, num_headings, max_depth);
  if (load_cache(path, result)) {
    std::printf("[acas-bench] loaded cached verification from %s\n", path.string().c_str());
    return result;
  }

  std::printf("[acas-bench] running verification (%zu arcs x %zu headings, depth %d)...\n",
              num_arcs, num_headings, max_depth);
  AcasSystem system = make_acas_system();
  const auto cells = scen.make_cells(partition);
  const auto error = scen.make_error_region();
  const auto target = scen.make_target_region();

  const TaylorIntegrator integrator(TaylorIntegrator::Config{scen.default_taylor_order(), {}});
  VerifyConfig config = scen.default_config();  // paper knobs: τ = 20 s, M = 10, Γ = P = 5
  config.reach.integrator = &integrator;
  config.reach.nn_cache = nn_cache_config_from_env();  // applied in make_acas_system
  config.max_refinement_depth = max_depth;
  config.threads = env_threads();

  Stopwatch watch;
  const VerificationEngine engine(system.loop, *error, *target);
  EngineConfig engine_config;
  engine_config.verify = config;
  engine_config.on_progress = [](const EngineProgress& p) {
    if (p.cells_done % 64 == 0 && p.cells_done > 0) {
      std::fprintf(stderr, "[acas-bench] %zu cells done (%zu proved), queue %zu\n",
                   p.cells_done, p.cells_proved, p.queue_depth);
    }
  };
  const VerifyReport report =
      engine.run(scenario::to_symbolic_set(cells), engine_config).report;

  result.root_cells = report.root_cells;
  result.coverage_percent = report.coverage_percent;
  result.proved_by_depth = report.proved_by_depth;
  result.wall_seconds = watch.seconds();
  result.aggregate = aggregate_stats(report);
  result.leaves.reserve(report.leaves.size());
  for (const auto& leaf : report.leaves) {
    CellRecord rec;
    rec.root_index = leaf.root_index;
    rec.depth = leaf.depth;
    rec.bearing_lo = cells[leaf.root_index].bin_lo;
    rec.bearing_hi = cells[leaf.root_index].bin_hi;
    rec.proved = leaf.outcome == ReachOutcome::kProvedSafe;
    rec.outcome = to_string(leaf.outcome);
    rec.seconds = leaf.stats.seconds;
    result.leaves.push_back(std::move(rec));
  }
  save_cache(path, result);
  return result;
}

std::filesystem::path artifact_dir_from_args(int argc, char** argv) {
  std::filesystem::path dir = ".";
  if (const char* env = std::getenv("NNCS_ARTIFACT_DIR"); env != nullptr && *env != '\0') {
    dir = env;
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--artifact-dir")) {
      dir = argv[i + 1];
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "[acas-bench] cannot create artifact dir %s: %s\n",
                 dir.string().c_str(), ec.message().c_str());
  }
  return dir;
}

obs::BenchArtifact make_bench_artifact(const std::string& bench_name, const AcasRunResult& run) {
  obs::BenchArtifact artifact;
  artifact.bench = bench_name;
  artifact.provenance = obs::collect_provenance();
  artifact.scale["num_arcs"] = static_cast<double>(run.num_arcs);
  artifact.scale["num_headings"] = static_cast<double>(run.num_headings);
  artifact.scale["max_depth"] = static_cast<double>(run.max_depth);

  // Canonical side: the refinement tree and its aggregate work counts are
  // deterministic for a fixed workload (key names match the v1 mapping in
  // parse_artifact, so old committed artifacts stay comparable).
  artifact.canonical_results["root_cells"] = static_cast<double>(run.root_cells);
  artifact.canonical_results["coverage_percent"] = run.coverage_percent;
  artifact.canonical_results["leaves"] = static_cast<double>(run.leaves.size());
  for (std::size_t depth = 0; depth < run.proved_by_depth.size(); ++depth) {
    artifact.canonical_results["proved_by_depth." + std::to_string(depth)] =
        static_cast<double>(run.proved_by_depth[depth]);
  }
  const ReachStats& agg = run.aggregate;
  artifact.canonical_results["aggregate.steps_executed"] =
      static_cast<double>(agg.steps_executed);
  artifact.canonical_results["aggregate.joins"] = static_cast<double>(agg.joins);
  artifact.canonical_results["aggregate.max_states"] = static_cast<double>(agg.max_states);
  artifact.canonical_results["aggregate.total_simulations"] =
      static_cast<double>(agg.total_simulations);

  // Wall side: compared under the regression tolerance, never exactly.
  artifact.wall_seconds = run.wall_seconds;
  artifact.wall_results["aggregate.cell_seconds"] = agg.seconds;
  artifact.wall_results["phase.simulate_s"] = agg.phases.simulate_seconds;
  artifact.wall_results["phase.controller_s"] = agg.phases.controller_seconds;
  artifact.wall_results["phase.join_s"] = agg.phases.join_seconds;
  artifact.wall_results["phase.check_s"] = agg.phases.check_seconds;
  artifact.wall_results["phase.total_s"] = agg.phases.total();

  obs::fill_artifact_metrics(artifact, obs::Registry::instance().snapshot());
  return artifact;
}

void write_bench_report(const std::string& bench_name, const AcasRunResult& run,
                        const std::filesystem::path& artifact_dir) {
  const std::filesystem::path path = artifact_dir / ("BENCH_" + bench_name + ".json");
  try {
    write_artifact(make_bench_artifact(bench_name, run), path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[acas-bench] %s\n", e.what());
    return;
  }
  std::printf("[acas-bench] perf report written to %s\n", path.string().c_str());
}

}  // namespace nncs::bench
