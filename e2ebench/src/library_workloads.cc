// tabu_10k and construct_250k: library solves of one seeded packed image.
//
// Untraced solves: LoadAreaSetAuto + FactSolver::Create + Solve, timed as
// one call, exactly as `emp solve --input x.emp` runs.
//
// Traced solves (--trace 1, interleaved with untraced ones): the same solve
// recomposed from the public functions FactSolver::SolveSinglePass calls, in
// its order, with a span around each call. The recomposition must reproduce
// the untraced p, H and assignment.
#include <optional>
#include <string>
#include <vector>

#include "constraints/constraint_set.h"
#include "constraints/query_parser.h"
#include "core/construction/growth_scratch.h"
#include "core/construction/monotonic_adjust.h"
#include "core/construction/region_growing.h"
#include "core/construction/seeding.h"
#include "core/fact_solver.h"
#include "core/feasibility.h"
#include "core/local_search/heterogeneity.h"
#include "core/local_search/tabu.h"
#include "core/partition.h"
#include "core/solution.h"
#include "data/loader.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

namespace {

struct LibraryConfig {
  int32_t num_areas = 0;
  const char* query = kSumQuery;
  emp::SolverOptions options;
  /// Seeded instances per run; figures are averaged over them.
  int instances = 1;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

LibraryConfig ConfigFor(const RunArgs& args) {
  LibraryConfig config;
  if (args.workload == "tabu_10k") {
    // Paper defaults plus an iteration cap: the cap fixes the work
    // without changing the answer a faster tabu engine would give.
    config.num_areas = args.tiny ? 300 : 10000;
    config.query = kSumQuery;
    config.options.tabu_max_iterations = args.tiny ? 60 : 3000;
    // Tabu work varies from instance to instance; four per run average
    // that out.
    config.instances = 4;
  } else {
    // construct_250k: load, feasibility and construction only.
    config.num_areas = args.tiny ? 3000 : 250000;
    config.query = kMixedQuery;
    config.options.run_local_search = false;
  }
  return config;
}

/// One answer: enough to check that every solve of the same input agrees.
struct Answer {
  int32_t p = 0;
  double heterogeneity = 0.0;
  std::vector<int32_t> region_of;
  bool operator==(const Answer&) const = default;
};

/// What one traced solve measured, per layer.
struct LayerSample {
  double solve_ms = 0.0;
  double load_ms = 0.0;
  double feasibility_ms = 0.0;
  double seeding_ms = 0.0;
  double grow_ms = 0.0;
  double adjust_ms = 0.0;
  double construction_ms = 0.0;
  double tabu_ms = 0.0;
  int64_t invalid_areas = 0;
  int64_t seed_areas = 0;
  int64_t construction_attempts = 0;
  int64_t regions_grown = 0;
  int64_t regions_dissolved = 0;
  int64_t adjust_merges = 0;
  int64_t algorithm1_reverts = 0;
  emp::TabuResult tabu;
  int64_t tabu_rejected = 0;
  int64_t tabu_invalid = 0;
};

/// The traced solve. Mirrors FactSolver::SolveSinglePass for the default
/// FaCT construction on one thread: feasibility, seeding, best-of-k
/// grow/adjust iterations with derived RNG streams and retries, then tabu.
emp::Result<Answer> TracedSolve(const std::string& image,
                                const std::vector<emp::Constraint>& query,
                                const emp::SolverOptions& options,
                                int64_t id, SpanRecorder* spans,
                                LayerSample* sample) {
  const double solve_start = NowSeconds();
  SpanRecorder::Scope root(spans, "solve", id, -1);
  const int parent = root.handle();
  // Runs `fn` inside a span named `name`; returns its wall time in ms.
  const auto timed = [&](const char* name, int under, auto&& fn) {
    const double start = NowSeconds();
    SpanRecorder::Scope span(spans, name, id, under);
    fn();
    return (NowSeconds() - start) * 1e3;
  };

  emp::Result<emp::AreaSet> areas = emp::Status::Internal("not loaded");
  sample->load_ms = timed("compact.load", parent,
                          [&] { areas = emp::LoadAreaSetAuto(image); });
  if (!areas.ok()) return areas.status();
  EMP_ASSIGN_OR_RETURN(emp::BoundConstraints bound,
                       emp::BoundConstraints::Create(&*areas, query));
  emp::obs::MetricRegistry registry;
  emp::RunContext ctx = emp::MakeRunContext(options);
  ctx.metrics = &registry;

  emp::Result<emp::FeasibilityReport> feasibility =
      emp::Status::Internal("not checked");
  sample->feasibility_ms = timed("feasibility", parent, [&] {
    emp::PhaseSupervisor supervisor(&ctx, "feasibility");
    feasibility = emp::CheckFeasibility(bound, &supervisor);
  });
  if (!feasibility.ok()) return feasibility.status();
  if (!feasibility->feasible) {
    return emp::Status::Infeasible("instance is infeasible");
  }
  sample->invalid_areas =
      static_cast<int64_t>(feasibility->invalid_areas.size());
  sample->seed_areas = feasibility->num_seed_areas;

  const double construction_start = NowSeconds();
  emp::SeedingResult seeding;
  sample->seeding_ms = timed("construction.seeding", parent, [&] {
    seeding = emp::SelectSeeds(bound, *feasibility);
  });
  emp::ConnectivityChecker connectivity(&areas->graph());

  struct Attempt {
    std::optional<emp::Partition> partition;
    emp::Status status;
    int32_t p = -1;
  };
  const auto run_attempt = [&](int iter, int attempt) {
    Attempt out;
    SpanRecorder::Scope iteration(spans, "construction.iteration", id,
                                  parent);
    ++sample->construction_attempts;
    emp::Rng rng(options.seed +
                 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(iter) +
                 0xD1B54A32D192ED03ULL * static_cast<uint64_t>(attempt));
    emp::Partition partition(&bound);
    for (int32_t a : feasibility->invalid_areas) partition.Deactivate(a);
    emp::PhaseSupervisor supervisor(&ctx, "construction", iter);
    emp::GrowthScratch scratch;
    emp::RegionGrowingStats growing;
    emp::MonotonicAdjustStats adjust;
    sample->grow_ms += timed("construction.grow", iteration.handle(), [&] {
      out.status = emp::GrowRegions(seeding, options, &rng, &partition,
                                    &growing, &supervisor, &scratch);
    });
    if (out.status.ok()) {
      sample->adjust_ms +=
          timed("construction.adjust", iteration.handle(), [&] {
            emp::ConnectivityChecker local(&areas->graph());
            out.status = emp::AdjustForCounting(&local, &partition, &adjust,
                                                &supervisor, &scratch);
          });
    }
    sample->regions_grown +=
        growing.regions_from_avg_seeds + growing.regions_from_merging;
    sample->regions_dissolved +=
        growing.regions_dissolved + adjust.regions_dissolved;
    sample->adjust_merges += adjust.merges;
    sample->algorithm1_reverts += growing.algorithm1_reverts;
    if (out.status.ok()) {
      out.p = partition.NumRegions();
      out.partition.emplace(std::move(partition));
    }
    return out;
  };

  std::optional<emp::Partition> best;
  int32_t best_p = -1;
  for (int iter = 0; iter < options.construction_iterations; ++iter) {
    Attempt out = run_attempt(iter, 0);
    for (int attempt = 1; attempt <= options.construction_retries;
         ++attempt) {
      if (out.status.ok() && out.p > 0) break;
      out = run_attempt(iter, attempt);
    }
    EMP_RETURN_IF_ERROR(out.status);
    if (out.p > best_p) {
      best_p = out.p;
      best = std::move(out.partition);
    }
  }
  sample->construction_ms = (NowSeconds() - construction_start) * 1e3;

  emp::Solution solution;
  solution.heterogeneity = emp::ComputeHeterogeneity(*best);
  if (options.run_local_search && best_p > 0) {
    emp::Result<emp::TabuResult> tabu = emp::Status::Internal("not run");
    sample->tabu_ms = timed("tabu", parent, [&] {
      emp::PhaseSupervisor supervisor(&ctx, "tabu");
      tabu = emp::TabuSearch(options, &connectivity, &*best,
                             /*objective=*/nullptr, &supervisor);
    });
    if (!tabu.ok()) return tabu.status();
    sample->tabu = *tabu;
    solution.heterogeneity = tabu->final_heterogeneity;
    sample->tabu_rejected =
        registry.GetCounter("emp_tabu_moves_tabu_rejected_total")->value();
    sample->tabu_invalid =
        registry.GetCounter("emp_tabu_moves_invalid_total")->value();
  }
  emp::FillAssignmentFromPartition(*best, &solution);
  sample->solve_ms = (NowSeconds() - solve_start) * 1e3;
  return Answer{solution.p(), solution.heterogeneity, solution.region_of};
}

/// Checks each answer with the validator and against the run's first
/// valid answer; each check counts one attempted operation.
class AnswerChecker {
 public:
  AnswerChecker(bool corrupt, const emp::AreaSet* areas,
                const std::vector<emp::Constraint>* query, Report* report)
      : corrupt_pending_(corrupt),
        areas_(areas),
        query_(query),
        report_(report) {}

  void Check(Answer answer, const std::string& what) {
    report_->AddAttempted(1);
    if (corrupt_pending_ && !answer.region_of.empty()) {
      // Self-test: move one area into a region of its own.
      answer.region_of[0] = answer.p;
      corrupt_pending_ = false;
    }
    const std::string problem =
        CheckAnswer(*areas_, *query_, answer.region_of, answer.p);
    if (!problem.empty()) {
      report_->Fail(what + ": " + problem);
    } else if (!reference_.has_value()) {
      reference_ = std::move(answer);
    } else if (!(answer == *reference_)) {
      report_->Fail(what + ": answer differs from the run's first answer (p " +
                    std::to_string(answer.p) + " vs " +
                    std::to_string(reference_->p) + ")");
    }
  }

  const std::optional<Answer>& reference() const { return reference_; }

 private:
  bool corrupt_pending_;
  const emp::AreaSet* areas_;
  const std::vector<emp::Constraint>* query_;
  Report* report_;
  std::optional<Answer> reference_;
};

}  // namespace

void RunLibraryWorkload(const RunArgs& args, Report* report) {
  const LibraryConfig config = ConfigFor(args);
  emp::Result<std::vector<emp::Constraint>> query =
      emp::ParseConstraints(config.query);
  if (!query.ok()) {
    report->Fail("query: " + query.status().message());
    return;
  }
  const size_t num_instances = static_cast<size_t>(config.instances);
  std::vector<std::string> images;
  for (size_t i = 0; i < num_instances; ++i) {
    images.push_back(args.out_dir + "/" + args.workload + "-" +
                     std::to_string(i) + ".emp");
  }

  // ---- Set-up: synthesize, pack, warm the images; several times. ------
  std::vector<double> setup_s;
  std::string digests;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double start = NowSeconds();
    digests.clear();
    for (size_t i = 0; i < num_instances; ++i) {
      emp::Result<std::string> written = WriteSeededImage(
          args.workload + "_" + std::to_string(i), config.num_areas,
          DeriveSeed(args.seed, 1 + i), images[i]);
      if (!written.ok()) {
        report->Fail("set-up: " + written.status().message());
        return;
      }
      digests += (digests.empty() ? "" : ",") + *written;
      if (!emp::LoadAreaSetAuto(images[i]).ok()) {
        report->Fail("set-up: packed image does not load");
        return;
      }
    }
    setup_s.push_back(NowSeconds() - start);
  }
  report->SetFact("instance_digests", digests);

  // The bound on p and the answer check use loads of their own, kept
  // outside the timed phase.
  std::vector<emp::AreaSet> reference_areas;
  std::vector<double> bounds;
  for (const std::string& image : images) {
    emp::Result<emp::AreaSet> areas = emp::LoadAreaSetAuto(image);
    emp::Result<int64_t> bound =
        areas.ok() ? PUpperBound(*areas, *query)
                   : emp::Result<int64_t>(areas.status());
    if (!bound.ok()) {
      report->Fail("p bound: " + bound.status().message());
      return;
    }
    reference_areas.push_back(*std::move(areas));
    bounds.push_back(static_cast<double>(*bound));
  }
  std::vector<AnswerChecker> checkers;
  for (size_t i = 0; i < num_instances; ++i) {
    checkers.emplace_back(args.corrupt && i == 0, &reference_areas[i],
                          &*query, report);
  }

  // ---- Measurement: whole cycles over the instances. With --trace 1 each
  // cycle also runs the traced recomposition, so the untraced and traced
  // solves see the same machine and trace.overhead_share compares like
  // with like.
  std::vector<std::vector<double>> solve_s(num_instances);
  std::vector<std::vector<double>> traced_solve_s(num_instances);
  std::vector<double> all_solve_s;
  SpanRecorder spans;
  std::vector<LayerSample> samples;
  ResetPeakRss();
  const double deadline = NowSeconds() + args.seconds;
  do {
    for (size_t i = 0; i < num_instances; ++i) {
      const double start = NowSeconds();
      emp::Result<emp::AreaSet> areas = emp::LoadAreaSetAuto(images[i]);
      emp::Result<emp::FactSolver> solver =
          areas.ok() ? emp::FactSolver::Create(&*areas, *query, config.options)
                     : emp::Result<emp::FactSolver>(areas.status());
      emp::Result<emp::Solution> solution =
          solver.ok() ? solver->Solve()
                      : emp::Result<emp::Solution>(solver.status());
      const double done = NowSeconds();
      if (!solution.ok()) {
        report->AddAttempted(1);
        report->Fail("solve: " + solution.status().message());
        return;
      }
      solve_s[i].push_back(done - start);
      all_solve_s.push_back(done - start);
      checkers[i].Check(Answer{solution->p(), solution->heterogeneity,
                               std::move(solution->region_of)},
                        "solve");
    }
    for (size_t i = 0; args.trace && i < num_instances; ++i) {
      LayerSample sample;
      emp::Result<Answer> answer =
          TracedSolve(images[i], *query, config.options,
                      static_cast<int64_t>(samples.size()) + 1, &spans,
                      &sample);
      if (!answer.ok()) {
        report->AddAttempted(1);
        report->Fail("traced solve: " + answer.status().message());
        return;
      }
      // Checked against the untraced answer: a traced answer that differs
      // means the recomposition diverged from FactSolver.
      checkers[i].Check(*std::move(answer), "traced solve");
      traced_solve_s[i].push_back(sample.solve_ms / 1e3);
      samples.push_back(sample);
    }
  } while (NowSeconds() < deadline);
  const double rss_peak_mb = PeakRssMb();

  // Per-instance figures averaged over the instances; each instance's
  // answer is the same on every solve (checked above).
  std::vector<double> instance_solve_s, instance_p90_s, p_values, h_values,
      p_over_bound;
  for (size_t i = 0; i < num_instances; ++i) {
    instance_solve_s.push_back(Median(solve_s[i]));
    instance_p90_s.push_back(Quantile(solve_s[i], 0.9));
    const std::optional<Answer>& answer = checkers[i].reference();
    if (!answer.has_value()) continue;
    p_values.push_back(answer->p);
    h_values.push_back(answer->heterogeneity);
    p_over_bound.push_back(bounds[i] > 0 ? answer->p / bounds[i] : 0.0);
  }
  const double plain_solve_s = Mean(instance_solve_s);
  const double attempted = static_cast<double>(report->attempted());
  double total_s = 0.0;
  for (double t : all_solve_s) total_s += t;
  // A library solve is its own job: jobs_per_s and job_latency_ms_* repeat
  // solve_s in other units. The latency quantiles are per instance, averaged
  // over instances like solve_s, so a p90 does not just name the slowest
  // instance.
  report->SetEndToEnd("solve_s", plain_solve_s, "s");
  report->SetEndToEnd("jobs_per_s",
                      static_cast<double>(all_solve_s.size()) / total_s,
                      "1/s");
  report->SetEndToEnd("job_latency_ms_p50", plain_solve_s * 1e3, "ms");
  report->SetEndToEnd("job_latency_ms_p90", Mean(instance_p90_s) * 1e3, "ms");
  report->SetEndToEnd("p", Mean(p_values), "regions");
  report->SetEndToEnd("heterogeneity", Mean(h_values), "H");
  report->SetEndToEnd(
      "ok_share",
      (attempted - static_cast<double>(report->failed())) / attempted,
      "share");
  report->SetEndToEnd("setup_s", Median(setup_s), "s");
  report->SetEndToEnd("rss_peak_mb", rss_peak_mb, "MB");
  report->SetFact("solves", std::to_string(all_solve_s.size()));
  if (!args.trace) return;
  report->SetFact("traced_solves", std::to_string(samples.size()));

  const auto median_of = [&samples](auto field) {
    std::vector<double> values;
    for (const LayerSample& s : samples) values.push_back(field(s));
    return Median(values);
  };
  // Whole cycles, so a mean over samples is a mean over instances.
  const auto mean_of = [&samples](auto field) {
    std::vector<double> values;
    for (const LayerSample& s : samples) {
      values.push_back(static_cast<double>(field(s)));
    }
    return Mean(values);
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  report->SetLayer("compact.load_ms",
                   median_of([](const LayerSample& s) { return s.load_ms; }),
                   "ms");
  report->SetLayer(
      "feasibility.ms",
      median_of([](const LayerSample& s) { return s.feasibility_ms; }), "ms");
  report->SetLayer(
      "feasibility.invalid_areas",
      mean_of([](const LayerSample& s) { return s.invalid_areas; }), "count");
  report->SetLayer("feasibility.seed_areas",
                   mean_of([](const LayerSample& s) { return s.seed_areas; }),
                   "count");
  report->SetLayer(
      "construction.ms",
      median_of([](const LayerSample& s) { return s.construction_ms; }),
      "ms");
  report->SetLayer(
      "construction.seeding_ms",
      median_of([](const LayerSample& s) { return s.seeding_ms; }), "ms");
  report->SetLayer("construction.grow_ms",
                   median_of([](const LayerSample& s) { return s.grow_ms; }),
                   "ms");
  report->SetLayer(
      "construction.adjust_ms",
      median_of([](const LayerSample& s) { return s.adjust_ms; }), "ms");
  report->SetLayer(
      "construction.iterations",
      mean_of([](const LayerSample& s) { return s.construction_attempts; }),
      "count");
  const double grown =
      mean_of([](const LayerSample& s) { return s.regions_grown; });
  const double dissolved =
      mean_of([](const LayerSample& s) { return s.regions_dissolved; });
  report->SetLayer("construction.regions_grown", grown, "count");
  report->SetLayer("construction.regions_dissolved", dissolved, "count");
  report->SetLayer("construction.dissolved_share", ratio(dissolved, grown),
                   "share");
  report->SetLayer(
      "construction.adjust_merges",
      mean_of([](const LayerSample& s) { return s.adjust_merges; }), "count");
  report->SetLayer(
      "construction.algorithm1_reverts",
      mean_of([](const LayerSample& s) { return s.algorithm1_reverts; }),
      "count");

  const double tabu_ms =
      median_of([](const LayerSample& s) { return s.tabu_ms; });
  const double iterations =
      mean_of([](const LayerSample& s) { return s.tabu.iterations; });
  const double tried =
      mean_of([](const LayerSample& s) { return s.tabu.moves_tried; });
  const double applied =
      mean_of([](const LayerSample& s) { return s.tabu.moves_applied; });
  const double hits =
      mean_of([](const LayerSample& s) { return s.tabu.cut_cache_hits; });
  const double misses =
      mean_of([](const LayerSample& s) { return s.tabu.cut_cache_misses; });
  report->SetLayer("tabu.ms", tabu_ms, "ms");
  report->SetLayer("tabu.iterations", iterations, "count");
  report->SetLayer("tabu.us_per_iteration",
                   ratio(tabu_ms * 1e3, iterations), "us");
  report->SetLayer("tabu.moves_tried", tried, "count");
  report->SetLayer("tabu.moves_applied", applied, "count");
  report->SetLayer("tabu.tried_per_applied", ratio(tried, applied), "ratio");
  report->SetLayer(
      "tabu.invalid_share",
      ratio(mean_of([](const LayerSample& s) { return s.tabu_invalid; }),
            tried),
      "share");
  report->SetLayer(
      "tabu.tabu_rejected",
      mean_of([](const LayerSample& s) { return s.tabu_rejected; }), "count");
  report->SetLayer(
      "tabu.candidates_rescored",
      mean_of([](const LayerSample& s) { return s.tabu.candidates_scored; }),
      "count");
  report->SetLayer("tabu.cut_cache_hit_rate", ratio(hits, hits + misses),
                   "share");
  // Natural stop (no-improve limit or no admissible move) vs the cap.
  const int64_t cap = config.options.tabu_max_iterations;
  report->SetLayer("tabu.converged_share",
                   mean_of([&](const LayerSample& s) {
                     return config.options.run_local_search &&
                                    (cap < 0 || s.tabu.iterations < cap)
                                ? 1.0
                                : 0.0;
                   }),
                   "share");
  report->SetLayer(
      "tabu.h_improvement",
      mean_of([](const LayerSample& s) { return s.tabu.ImprovementRatio(); }),
      "share");

  report->SetLayer("quality.p_upper_bound", Mean(bounds), "regions");
  report->SetLayer("quality.p_over_bound", Mean(p_over_bound), "share");
  std::vector<double> traced_instance_s;
  for (const std::vector<double>& times : traced_solve_s) {
    traced_instance_s.push_back(Median(times));
  }
  report->SetLayer("trace.overhead_share",
                   Mean(traced_instance_s) / plain_solve_s - 1.0, "share");

  // Self time per layer as a share of traced solve time.
  const std::map<std::string, double> self_ms = spans.SelfMillisByName();
  const double root_ms = spans.TotalMillis("solve");
  const auto self_of = [&self_ms](const char* name) {
    auto it = self_ms.find(name);
    return it != self_ms.end() ? it->second : 0.0;
  };
  report->SetLayer("layer.load_share", ratio(self_of("compact.load"), root_ms),
                   "share");
  report->SetLayer("layer.feasibility_share",
                   ratio(self_of("feasibility"), root_ms), "share");
  report->SetLayer("layer.construction_share",
                   ratio(self_of("construction.seeding") +
                             self_of("construction.iteration") +
                             self_of("construction.grow") +
                             self_of("construction.adjust"),
                         root_ms),
                   "share");
  report->SetLayer("layer.tabu_share", ratio(self_of("tabu"), root_ms),
                   "share");
  report->SetLayer("layer.unattributed_share",
                   ratio(self_of("solve"), root_ms), "share");

  const std::string trace_path = args.out_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  if (WriteTextFile(trace_path, spans.ToChromeJson())) {
    report->SetFact("trace_file", trace_path);
  }
}

}  // namespace e2e
