// e2ebench: end-to-end benchmark of the emp solver and solve service.
//
//   e2ebench --workload tabu_10k|construct_250k|service_mixed --seed N
//            --seconds S --trace 0|1 --out-dir DIR [--tiny] [--corrupt]
//
// Writes one results document (metrics with units, correctness counts,
// instance digests, failures) to standard output. run.py builds this
// program, stamps the document with a machine fingerprint and prints the
// benchmark's result line; see README.md.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "support.h"
#include "workloads.h"

namespace e2e {

namespace {

/// Every per-layer metric with its unit. A workload that does not exercise
/// a layer reports its metrics as 0, so every traced run has the same set.
const std::vector<std::pair<const char*, const char*>>& PerLayerCatalog() {
  static const auto* catalog =
      new std::vector<std::pair<const char*, const char*>>{
          {"compact.load_ms", "ms"},
          {"feasibility.ms", "ms"},
          {"feasibility.invalid_areas", "count"},
          {"feasibility.seed_areas", "count"},
          {"construction.ms", "ms"},
          {"construction.seeding_ms", "ms"},
          {"construction.grow_ms", "ms"},
          {"construction.adjust_ms", "ms"},
          {"construction.iterations", "count"},
          {"construction.regions_grown", "count"},
          {"construction.regions_dissolved", "count"},
          {"construction.dissolved_share", "share"},
          {"construction.adjust_merges", "count"},
          {"construction.algorithm1_reverts", "count"},
          {"tabu.ms", "ms"},
          {"tabu.iterations", "count"},
          {"tabu.us_per_iteration", "us"},
          {"tabu.moves_tried", "count"},
          {"tabu.moves_applied", "count"},
          {"tabu.tried_per_applied", "ratio"},
          {"tabu.invalid_share", "share"},
          {"tabu.tabu_rejected", "count"},
          {"tabu.candidates_rescored", "count"},
          {"tabu.cut_cache_hit_rate", "share"},
          {"tabu.converged_share", "share"},
          {"tabu.h_improvement", "share"},
          {"http.admit_ms_p50", "ms"},
          {"http.admit_ms_p90", "ms"},
          {"http.poll_ms_p50", "ms"},
          {"http.polls_per_job", "count"},
          {"http.result_bytes", "bytes"},
          {"http.read_ms_p50", "ms"},
          {"http.read_ms_p90", "ms"},
          {"queue.wait_ms_p50", "ms"},
          {"queue.wait_ms_p90", "ms"},
          {"job.run_ms_p50", "ms"},
          {"job.bind_ms", "ms"},
          {"service.rejected", "count"},
          {"service.retained_jobs", "count"},
          {"service.rss_per_job_kb", "kB"},
          {"quality.p_upper_bound", "regions"},
          {"quality.p_over_bound", "share"},
          {"trace.overhead_share", "share"},
          {"layer.load_share", "share"},
          {"layer.feasibility_share", "share"},
          {"layer.construction_share", "share"},
          {"layer.tabu_share", "share"},
          {"layer.http_share", "share"},
          {"layer.queue_share", "share"},
          {"layer.job_run_share", "share"},
          {"layer.unattributed_share", "share"},
      };
  return *catalog;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "tabu_10k|construct_250k|service_mixed --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--tiny] [--corrupt]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt") {
      args.corrupt = true;
    } else if (!has_value) {
      return e2e::Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = argv[++i];
    } else {
      return e2e::Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.out_dir.empty() || !(args.seconds > 0)) {
    return e2e::Usage("--out-dir and a positive --seconds are required");
  }

  e2e::Report report;
  if (args.workload == "tabu_10k" || args.workload == "construct_250k") {
    e2e::RunLibraryWorkload(args, &report);
  } else if (args.workload == "service_mixed") {
    e2e::RunServiceWorkload(args, &report);
  } else {
    return e2e::Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) {
    report.FillMissingLayers(e2e::PerLayerCatalog());
  }
  report.SetFact("compiler", E2E_COMPILER);
  report.SetFact("build_type", E2E_BUILD_TYPE);
  std::cout << report.ToJson();
  return 0;
}
