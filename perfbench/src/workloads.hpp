#pragma once

// The benchmark's workloads and the run protocol: assemble the scenario,
// verify the whole partition with `VerificationEngine::run` in whole rounds
// until the run's time is spent, check the outputs, and report end-to-end
// metrics (plain rounds) or per-layer metrics (traced rounds).

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/reachability.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string scenario;
  /// Directory, relative to the checkout root, holding the cached networks
  /// the run copies before assembling the scenario.
  std::string nets_source;
  nncs::scenario::Partition partition;
  int depth = 0;
  std::size_t threads = 1;
  std::optional<nncs::LoopDomain> domain;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

struct RunOptions {
  std::filesystem::path root;      ///< checkout root
  std::filesystem::path work_dir;  ///< scratch directory for this run
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes the spans of its last traced round.
  std::filesystem::path spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable findings: failed checks and failed operations.
  std::vector<std::string> notes;
};

/// Run one workload under the benchmark protocol. Throws on a set-up
/// failure (missing networks, a rewritten network cache, a run that did not
/// complete).
[[nodiscard]] RunResult run_workload(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
