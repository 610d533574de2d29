// Benchmark driver: runs one workload and prints, as its last stdout line,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Normally started by perfbench/run.py, which builds it first.
//
//   nncs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --root CHECKOUT --work-dir DIR [--spans-out FILE]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --root DIR "
               "--work-dir DIR [--spans-out FILE]\nworkloads:",
               program);
  for (const perfbench::Workload& w : perfbench::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// JSON string escaping for the characters that can appear in our names.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(argv[0]);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--root") {
      options.root = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      options.root.empty() || options.work_dir.empty()) {
    return usage(argv[0]);
  }

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], workload->name.c_str(), e.what());
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s: %s\n", workload->name.c_str(), note.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + quoted(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct ? 0 : 1;
}
