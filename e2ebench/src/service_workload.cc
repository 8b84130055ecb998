// service_mixed: an in-process SolveService behind obs::HttpServer with 2
// workers, driven over loopback sockets.
//
// Load: 3 closed-loop submitters, each doing POST /solve and then polling
// GET /jobs/<id> at a fixed interval until the job is terminal. Reads: one
// open-loop reader at a fixed rate, reading GET /jobs then GET /stats on
// each tick, timed from when the tick was due. Jobs cycle over a few seeded ~2k-area
// packed images and both queries, with per-job solver seeds. A round ends
// after a fixed job count, so a faster service is not charged for more
// retained jobs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "constraints/query_parser.h"
#include "core/fact_solver.h"
#include "core/report.h"
#include "data/loader.h"
#include "http_client.h"
#include "obs/http_server.h"
#include "service/solve_service.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

namespace {

using emp::json::Value;

/// Images the jobs cycle over. p, H and solve time differ from image to
/// image; 24 per run keep their means steady from seed to seed.
constexpr int kImages = 24;
constexpr int kSubmitters = 3;
constexpr int kWorkers = 2;
constexpr int kQueueCapacity = 8;
/// Submitter poll interval. A job's latency is only seen at the poll that
/// observes it terminal, so the interval must be small next to a job's
/// ~0.1-0.2 s: 10 ms adds about 5 ms on average. A 200 ms poll pins every
/// job's latency to the poll interval and halves closed-loop throughput.
constexpr double kPollIntervalS = 0.010;
/// Reader tick: five dashboards refreshing once a second each.
constexpr double kReadIntervalS = 0.200;
constexpr double kJobTimeoutS = 60.0;
/// Jobs per requested second of run time: a little under what 2 workers
/// finish at ~0.06 s per job. Fixed, so the work does not depend on
/// service speed.
constexpr double kJobsPerSecond = 28.0;
constexpr int kSetupRepeats = 7;
/// Jobs per round whose answer is re-derived by a direct library solve:
/// the first job of each (image, query) pair among the first six images.
constexpr int kSampledJobs = 12;

struct ServiceConfig {
  int32_t num_areas = 2000;
  int64_t tabu_cap = 800;
};

const char* QueryText(int q) { return q == 0 ? kSumQuery : kMixedQuery; }

double NumberOr(const Value* v, double fallback) {
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string StringOr(const Value* v) {
  return v != nullptr && v->is_string() ? v->AsString() : std::string();
}

/// One image the jobs cycle over, loaded once more by the benchmark for
/// the answer check and the bound on p.
struct Image {
  std::string path;
  std::string digest;
  std::shared_ptr<const emp::AreaSet> areas;
  int64_t p_bound[2] = {0, 0};
};

/// The running service. The server holds the service's handler, so it is
/// declared last and stopped first.
struct Running {
  std::unique_ptr<emp::service::SolveService> service;
  std::unique_ptr<emp::obs::HttpServer> server;
  double epoch_s = 0.0;  // steady time the job manager's clock starts at
  ~Running() {
    if (server) server->Stop();
  }
};

/// What the benchmark saw of one job.
struct JobRecord {
  int64_t index = 0;
  int64_t id = -1;
  int image = 0;
  int query = 0;
  uint64_t seed = 0;
  double submit_s = 0.0;
  double admitted_s = 0.0;
  double observed_s = 0.0;
  /// [start, end] of each GET /jobs/<id>, steady seconds.
  std::vector<std::pair<double, double>> polls;
  bool done = false;
  size_t result_bytes = 0;
  int64_t queued_ms = -1;
  int64_t started_ms = -1;
  int64_t finished_ms = -1;
  int32_t p = 0;
  double heterogeneity = 0.0;
  double solve_s = 0.0;
  double h_improvement = 0.0;
  double construction_iterations = 0.0;
  std::vector<int32_t> region_of;  // kept for sampled jobs only
};

std::string SolveBody(const Image& image, int query, uint64_t seed,
                      int64_t tabu_cap) {
  std::ostringstream body;
  body << "{\"instance\": \"" << image.path << "\", \"query\": \""
       << QueryText(query) << "\", \"options\": {\"seed\": " << seed
       << ", \"tabu_max_iterations\": " << tabu_cap << "}}";
  return body.str();
}

/// Reads p, H and the assignment out of a solution document.
emp::Status ReadAnswer(const Value& result, int32_t num_areas,
                       JobRecord* record) {
  const Value* regions = result.Find("regions");
  if (regions == nullptr || !regions->is_array()) {
    return emp::Status::Internal("result has no regions array");
  }
  record->p = static_cast<int32_t>(NumberOr(result.Find("p"), -1));
  record->heterogeneity = NumberOr(result.Find("heterogeneity"), -1);
  record->solve_s = NumberOr(result.Find("feasibility_seconds"), 0) +
                    NumberOr(result.Find("construction_seconds"), 0) +
                    NumberOr(result.Find("local_search_seconds"), 0);
  record->h_improvement =
      NumberOr(result.Find("heterogeneity_improvement"), 0);
  record->construction_iterations =
      NumberOr(result.Find("completed_construction_iterations"), 0);
  record->region_of.assign(static_cast<size_t>(num_areas), -1);
  int32_t rid = 0;
  for (const Value& region : regions->AsArray()) {
    const Value* areas = region.Find("areas");
    if (areas == nullptr || !areas->is_array()) {
      return emp::Status::Internal("region without areas");
    }
    for (const Value& a : areas->AsArray()) {
      const double area = NumberOr(&a, -1);
      if (area < 0 || area >= num_areas) {
        return emp::Status::Internal("area id out of range");
      }
      record->region_of[static_cast<size_t>(area)] = rid;
    }
    ++rid;
  }
  return emp::Status::OK();
}

/// Submits a job over HTTP and waits for it to be terminal. Used by set-up
/// to bind each image once before timing. The wait blocks on the job
/// manager instead of polling, so set-up time carries no sleep granularity.
emp::Status WarmUp(int port, emp::service::JobManager& jobs,
                   const Image& image) {
  std::string body = "{\"instance\": \"" + image.path + "\", \"query\": \"" +
                     kSumQuery +
                     "\", \"options\": {\"run_local_search\": false, "
                     "\"construction_iterations\": 1}}";
  EMP_ASSIGN_OR_RETURN(HttpReply reply, HttpCall(port, "POST", "/solve", body));
  if (reply.status != 202) {
    return emp::Status::Internal("warm-up POST returned " +
                                 std::to_string(reply.status));
  }
  EMP_ASSIGN_OR_RETURN(Value doc, emp::json::Parse(reply.body));
  const int64_t id = static_cast<int64_t>(NumberOr(doc.Find("job_id"), -1));
  EMP_ASSIGN_OR_RETURN(
      emp::service::JobState state,
      jobs.WaitTerminal(id, static_cast<int64_t>(kJobTimeoutS * 1e3)));
  if (state != emp::service::JobState::kDone) {
    return emp::Status::Internal(
        "warm-up job ended " +
        std::string(emp::service::JobStateName(state)));
  }
  return emp::Status::OK();
}

emp::Result<std::unique_ptr<Running>> StartService(
    const std::vector<Image>& images) {
  auto running = std::make_unique<Running>();
  emp::service::JobManager::Options options;
  options.workers = kWorkers;
  options.queue_capacity = kQueueCapacity;
  running->epoch_s = NowSeconds();
  EMP_ASSIGN_OR_RETURN(running->service,
                       emp::service::SolveService::Create(options));
  emp::obs::HttpServer::Options server_options;
  server_options.port = 0;
  server_options.handler = running->service->Handler();
  EMP_ASSIGN_OR_RETURN(running->server,
                       emp::obs::HttpServer::Start(server_options));
  for (const Image& image : images) {
    EMP_RETURN_IF_ERROR(
        WarmUp(running->server->port(), running->service->jobs(), image));
  }
  return running;
}

void SleepUntil(double steady_s) {
  const double wait = steady_s - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Sleeps to just before `steady_s`, then spins, so the open-loop reader
/// sends on schedule instead of adding its own wake-up delay.
void WaitPrecisely(double steady_s) {
  constexpr double kSpinS = 0.0005;
  SleepUntil(steady_s - kSpinS);
  while (NowSeconds() < steady_s) {
  }
}

/// Measurements of one round.
struct Round {
  std::vector<JobRecord> jobs;
  std::vector<double> read_latency_ms;
  /// How late each read was sent relative to when it was due.
  std::vector<double> reader_lateness_ms;
  double start_s = 0.0;
  double end_s = 0.0;
  double rss_peak_mb = 0.0;
  double rss_growth_kb = 0.0;
  int64_t rejected = 0;
  int64_t retained_jobs = 0;
};

class RoundRunner {
 public:
  RoundRunner(const RunArgs& args, const ServiceConfig& config,
              const std::vector<Image>& images,
              const std::vector<std::vector<emp::Constraint>>& queries,
              const Running& running, SpanRecorder* spans, Report* report)
      : args_(args),
        config_(config),
        images_(images),
        queries_(queries),
        port_(running.server->port()),
        spans_(spans),
        report_(report) {}

  Round Run(int64_t num_jobs) {
    Round round;
    round.jobs.resize(static_cast<size_t>(num_jobs));
    ResetPeakRss();
    const double rss_before_kb = CurrentRssKb();
    round.start_s = NowSeconds();
    std::atomic<int64_t> next{0};
    std::atomic<bool> submitters_done{false};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        for (int64_t i; (i = next.fetch_add(1)) < num_jobs;) {
          RunJob(i, &round.jobs[static_cast<size_t>(i)]);
        }
      });
    }
    std::thread reader(
        [&] { ReadLoop(round.start_s, submitters_done, &round); });
    for (std::thread& t : submitters) t.join();
    submitters_done = true;
    reader.join();
    round.end_s = 0.0;
    for (const JobRecord& job : round.jobs) {
      round.end_s = std::max(round.end_s, job.observed_s);
    }
    round.rejected = rejected_.load();
    round.rss_peak_mb = PeakRssMb();
    round.rss_growth_kb = CurrentRssKb() - rss_before_kb;
    emp::Result<HttpReply> list = HttpCall(port_, "GET", "/jobs");
    if (list.ok()) {
      emp::Result<Value> doc = emp::json::Parse(list->body);
      const Value* jobs = doc.ok() ? doc->Find("jobs") : nullptr;
      if (jobs != nullptr && jobs->is_array()) {
        round.retained_jobs = static_cast<int64_t>(jobs->AsArray().size());
      }
    }
    return round;
  }

 private:
  void RunJob(int64_t index, JobRecord* job) {
    report_->AddAttempted(1);
    job->index = index;
    job->query = static_cast<int>(index % 2);
    job->image = static_cast<int>((index / 2) % kImages);
    // Below 2^53, so the seed survives the JSON number round trip.
    job->seed = DeriveSeed(args_.seed, 1000 + static_cast<uint64_t>(index)) >>
                12;
    const Image& image = images_[static_cast<size_t>(job->image)];
    const std::string label = "job " + std::to_string(index);
    job->submit_s = NowSeconds();
    emp::Result<HttpReply> reply = HttpCall(
        port_, "POST", "/solve",
        SolveBody(image, job->query, job->seed, config_.tabu_cap));
    job->admitted_s = NowSeconds();
    job->observed_s = job->admitted_s;
    if (!reply.ok() || reply->status != 202) {
      if (reply.ok() && reply->status == 429) ++rejected_;
      report_->Fail(label + ": POST /solve " +
                    (reply.ok() ? "returned " + std::to_string(reply->status)
                                : reply.status().message()));
      return;
    }
    emp::Result<Value> admitted = emp::json::Parse(reply->body);
    job->id = admitted.ok() ? static_cast<int64_t>(
                                  NumberOr(admitted->Find("job_id"), -1))
                            : -1;
    const std::string target = "/jobs/" + std::to_string(job->id);
    double next_poll = job->admitted_s + kPollIntervalS;
    for (;;) {
      SleepUntil(next_poll);
      const double poll_start = NowSeconds();
      next_poll = poll_start + kPollIntervalS;
      emp::Result<HttpReply> poll = HttpCall(port_, "GET", target);
      const double poll_end = NowSeconds();
      job->polls.emplace_back(poll_start, poll_end);
      emp::Result<Value> snapshot =
          poll.ok() && poll->status == 200 ? emp::json::Parse(poll->body)
                                           : emp::Result<Value>(
                                                 emp::Status::Internal(
                                                     "poll failed"));
      if (!snapshot.ok()) {
        report_->Fail(label + ": GET " + target + " failed");
        return;
      }
      const std::string state = StringOr(snapshot->Find("state"));
      if (state == "queued" || state == "running") {
        if (poll_end - job->submit_s > kJobTimeoutS) {
          report_->Fail(label + ": timed out in state " + state);
          return;
        }
        continue;
      }
      job->observed_s = poll_end;
      job->queued_ms = static_cast<int64_t>(
          NumberOr(snapshot->Find("queued_ms"), -1));
      job->started_ms = static_cast<int64_t>(
          NumberOr(snapshot->Find("started_ms"), -1));
      job->finished_ms = static_cast<int64_t>(
          NumberOr(snapshot->Find("finished_ms"), -1));
      const Value* result = snapshot->Find("result");
      if (state != "done" || result == nullptr) {
        report_->Fail(label + ": ended " + state + " " +
                      StringOr(snapshot->Find("error")));
        return;
      }
      job->result_bytes = poll->body.size();
      CheckJobAnswer(*result, image, label, job);
      return;
    }
  }

  void CheckJobAnswer(const Value& result, const Image& image,
                      const std::string& label, JobRecord* job) {
    const emp::Status read =
        ReadAnswer(result, image.areas->num_areas(), job);
    if (!read.ok()) {
      report_->Fail(label + ": " + read.message());
      return;
    }
    if (args_.corrupt && job->index == 0 && !job->region_of.empty()) {
      // Self-test: move one area into a region of its own.
      job->region_of[0] = job->p;
    }
    const std::string problem =
        CheckAnswer(*image.areas, queries_[static_cast<size_t>(job->query)],
                    job->region_of, job->p);
    if (!problem.empty()) {
      report_->Fail(label + ": " + problem);
      return;
    }
    job->done = true;
    if (job->index >= kSampledJobs) {
      job->region_of.clear();
      job->region_of.shrink_to_fit();
    }
  }

  /// Open-loop reads until `stop`, one per tick: GET /jobs then GET /stats,
  /// as a dashboard refreshes, timed from when the tick was due to the
  /// second answer.
  void ReadLoop(double start_s, const std::atomic<bool>& stop,
                Round* round) {
    for (int64_t k = 0; !stop; ++k) {
      const double due = start_s + static_cast<double>(k) * kReadIntervalS;
      WaitPrecisely(due);
      if (stop) break;
      round->reader_lateness_ms.push_back((NowSeconds() - due) * 1e3);
      const int root =
          spans_ != nullptr ? spans_->Begin("http.read", 0, -1) : -1;
      double done = due;
      for (const char* target : {"/jobs", "/stats"}) {
        const double sent = NowSeconds();
        report_->AddAttempted(1);
        emp::Result<HttpReply> reply = HttpCall(port_, "GET", target);
        done = NowSeconds();
        if (spans_ != nullptr) {
          spans_->Add(std::string("http.read") + target, 0, root,
                      spans_->ToMicros(sent), spans_->ToMicros(done));
        }
        // A light shape check: fully parsing a large GET /jobs body would
        // load the machine the service runs on.
        const bool list = target[1] == 'j';
        const bool shaped =
            reply.ok() && reply->status == 200 &&
            reply->body.rfind(list ? "{\n  \"jobs\": [" : "{", 0) == 0;
        if (!shaped) report_->Fail(std::string("GET ") + target + " failed");
      }
      if (spans_ != nullptr) spans_->End(root);
      round->read_latency_ms.push_back((done - due) * 1e3);
    }
  }

  const RunArgs& args_;
  const ServiceConfig& config_;
  const std::vector<Image>& images_;
  const std::vector<std::vector<emp::Constraint>>& queries_;
  int port_;
  SpanRecorder* spans_;
  Report* report_;
  std::atomic<int64_t> rejected_{0};
};

/// Re-derives sampled answers with a direct library solve on the same
/// image, query and options; p, H and the assignment must be equal.
void CompareWithLibrary(
    const Round& round, const std::vector<Image>& images,
    const std::vector<std::vector<emp::Constraint>>& queries,
    const ServiceConfig& config, Report* report) {
  for (const JobRecord& job : round.jobs) {
    if (job.index >= kSampledJobs || !job.done) continue;
    report->AddAttempted(1);
    const Image& image = images[static_cast<size_t>(job.image)];
    emp::SolverOptions options;
    options.seed = job.seed;
    options.tabu_max_iterations = config.tabu_cap;
    const std::vector<emp::Constraint>& query =
        queries[static_cast<size_t>(job.query)];
    emp::Result<emp::FactSolver> solver =
        emp::FactSolver::Create(image.areas.get(), query, options);
    emp::Result<emp::Solution> solution =
        solver.ok() ? solver->Solve()
                    : emp::Result<emp::Solution>(solver.status());
    emp::Result<std::string> doc =
        solution.ok()
            ? emp::SolutionToJson(*image.areas, query, *solution)
            : emp::Result<std::string>(solution.status());
    emp::Result<Value> parsed =
        doc.ok() ? emp::json::Parse(*doc) : emp::Result<Value>(doc.status());
    JobRecord direct;
    const std::string label = "job " + std::to_string(job.index);
    if (!parsed.ok() ||
        !ReadAnswer(*parsed, image.areas->num_areas(), &direct).ok()) {
      report->Fail(label + ": direct library solve failed");
      continue;
    }
    if (direct.p != job.p || direct.heterogeneity != job.heterogeneity ||
        direct.region_of != job.region_of) {
      report->Fail(label + ": service answer differs from the library's (p " +
                   std::to_string(job.p) + " vs " +
                   std::to_string(direct.p) + ")");
    }
  }
}

/// Per-job figures only the service's own trace and journal carry.
struct JobInternals {
  std::vector<double> bind_ms, feasibility_ms, construction_ms, seeding_ms,
      grow_ms, adjust_ms, tabu_ms, tabu_iterations, tabu_applied;
};

/// Adds the program's own per-job phase spans (GET /jobs/<id>/trace) under
/// the benchmark's job.run span, and reads instance-bind cost and tabu
/// counts (GET /jobs/<id>/journal). Runs after the round, untimed.
void CollectJobInternals(int port, const JobRecord& job, double epoch_s,
                         int run_span, SpanRecorder* spans,
                         JobInternals* out) {
  const std::string base = "/jobs/" + std::to_string(job.id);
  emp::Result<HttpReply> trace = HttpCall(port, "GET", base + "/trace");
  emp::Result<Value> doc =
      trace.ok() ? emp::json::Parse(trace->body)
                 : emp::Result<Value>(trace.status());
  const Value* events = doc.ok() ? doc->Find("traceEvents") : nullptr;
  if (events != nullptr && events->is_array()) {
    const double queued_s =
        epoch_s + static_cast<double>(job.queued_ms) / 1e3;
    double seeding = 0, grow = 0, adjust = 0, construction = 0;
    for (const Value& ev : events->AsArray()) {
      const std::string name = StringOr(ev.Find("name"));
      const std::string ph = StringOr(ev.Find("ph"));
      if (ph == "i" && name == "instance.bind") {
        const Value* args = ev.Find("args");
        out->bind_ms.push_back(
            NumberOr(args != nullptr ? args->Find("value") : nullptr, 0));
        continue;
      }
      if (ph != "X") continue;
      const double dur_ms = NumberOr(ev.Find("dur"), 0) / 1e3;
      const bool layer = name == "feasibility" ||
                         name == "construction.seeding" ||
                         name == "construction.grow" ||
                         name == "construction.adjust" || name == "tabu";
      if (layer) {
        const double start_s = queued_s + NumberOr(ev.Find("ts"), 0) / 1e6;
        spans->Add(name, job.id, run_span, spans->ToMicros(start_s),
                   spans->ToMicros(start_s + dur_ms / 1e3));
      }
      if (name == "feasibility") out->feasibility_ms.push_back(dur_ms);
      if (name == "tabu") out->tabu_ms.push_back(dur_ms);
      if (name == "construction.seeding") seeding += dur_ms;
      if (name == "construction.grow") grow += dur_ms;
      if (name == "construction.adjust") adjust += dur_ms;
      if (name == "construction.iteration" || name == "construction.seeding") {
        construction += dur_ms;
      }
    }
    out->seeding_ms.push_back(seeding);
    out->grow_ms.push_back(grow);
    out->adjust_ms.push_back(adjust);
    out->construction_ms.push_back(construction);
  }
  emp::Result<HttpReply> journal = HttpCall(port, "GET", base + "/journal");
  if (!journal.ok()) return;
  std::istringstream lines(journal->body);
  for (std::string line; std::getline(lines, line);) {
    emp::Result<Value> record = emp::json::Parse(line);
    if (!record.ok() || StringOr(record->Find("type")) != "phase_end" ||
        StringOr(record->Find("phase")) != "tabu") {
      continue;
    }
    out->tabu_iterations.push_back(NumberOr(record->Find("iterations"), 0));
    out->tabu_applied.push_back(NumberOr(record->Find("moves_applied"), 0));
  }
}

}  // namespace

void RunServiceWorkload(const RunArgs& args, Report* report) {
  ServiceConfig config;
  if (args.tiny) {
    config.num_areas = 200;
    config.tabu_cap = 40;
  }
  std::vector<std::vector<emp::Constraint>> queries;
  for (int q = 0; q < 2; ++q) {
    emp::Result<std::vector<emp::Constraint>> parsed =
        emp::ParseConstraints(QueryText(q));
    if (!parsed.ok()) {
      report->Fail("query: " + parsed.status().message());
      return;
    }
    queries.push_back(*std::move(parsed));
  }

  // ---- Set-up, several times: images, service start, instance bind. ----
  std::vector<Image> images(kImages);
  std::vector<double> setup_s;
  std::unique_ptr<Running> running;
  for (int r = 0; r < kSetupRepeats; ++r) {
    running.reset();
    const double start = NowSeconds();
    for (int i = 0; i < kImages; ++i) {
      Image& image = images[static_cast<size_t>(i)];
      image.path = args.out_dir + "/service_mixed-" + std::to_string(i) +
                   ".emp";
      emp::Result<std::string> digest = WriteSeededImage(
          "service_mixed_" + std::to_string(i), config.num_areas,
          DeriveSeed(args.seed, 100 + static_cast<uint64_t>(i)), image.path);
      if (!digest.ok()) {
        report->Fail("set-up: " + digest.status().message());
        return;
      }
      image.digest = *digest;
    }
    emp::Result<std::unique_ptr<Running>> started = StartService(images);
    if (!started.ok()) {
      report->Fail("set-up: " + started.status().message());
      return;
    }
    running = std::move(*started);
    setup_s.push_back(NowSeconds() - start);
  }
  std::string digests;
  for (Image& image : images) {
    digests += (digests.empty() ? "" : ",") + image.digest;
    emp::Result<emp::AreaSet> areas = emp::LoadAreaSetAuto(image.path);
    if (!areas.ok()) {
      report->Fail("load: " + areas.status().message());
      return;
    }
    image.areas = std::make_shared<const emp::AreaSet>(*std::move(areas));
    for (int q = 0; q < 2; ++q) {
      emp::Result<int64_t> bound =
          PUpperBound(*image.areas, queries[static_cast<size_t>(q)]);
      if (!bound.ok()) {
        report->Fail("p bound: " + bound.status().message());
        return;
      }
      image.p_bound[q] = *bound;
    }
  }
  report->SetFact("instance_digests", digests);

  const int64_t total_jobs = std::max<int64_t>(
      kSampledJobs, std::llround(kJobsPerSecond * args.seconds));
  const int64_t round_jobs =
      args.trace ? std::max<int64_t>(kSampledJobs, total_jobs / 2)
                 : total_jobs;

  // ---- Untraced round. ---------------------------------------------------
  Round plain = RoundRunner(args, config, images, queries, *running,
                            nullptr, report)
                    .Run(round_jobs);
  CompareWithLibrary(plain, images, queries, config, report);

  std::vector<double> latency_ms, solve_s, p_values, h_values;
  int64_t done = 0;
  for (const JobRecord& job : plain.jobs) {
    if (!job.done) continue;
    ++done;
    latency_ms.push_back((job.observed_s - job.submit_s) * 1e3);
    solve_s.push_back(job.solve_s);
    p_values.push_back(job.p);
    h_values.push_back(job.heterogeneity);
  }
  const double plain_jobs_per_s =
      plain.end_s > plain.start_s
          ? static_cast<double>(done) / (plain.end_s - plain.start_s)
          : 0.0;
  const double attempted = static_cast<double>(report->attempted());
  report->SetEndToEnd("solve_s", Median(solve_s), "s");
  report->SetEndToEnd("jobs_per_s", plain_jobs_per_s, "1/s");
  report->SetEndToEnd("job_latency_ms_p50", Quantile(latency_ms, 0.5), "ms");
  report->SetEndToEnd("job_latency_ms_p90", Quantile(latency_ms, 0.9), "ms");
  report->SetEndToEnd("p", Mean(p_values), "regions");
  report->SetEndToEnd("heterogeneity", Mean(h_values), "H");
  report->SetEndToEnd(
      "ok_share",
      attempted > 0
          ? (attempted - static_cast<double>(report->failed())) / attempted
          : 0.0,
      "share");
  report->SetEndToEnd("setup_s", Median(setup_s), "s");
  report->SetEndToEnd("rss_peak_mb", plain.rss_peak_mb, "MB");
  report->SetFact("jobs", std::to_string(plain.jobs.size()));
  report->SetFact("reads", std::to_string(plain.read_latency_ms.size()));
  report->SetFact("reader_lateness_ms_p90",
                  std::to_string(Quantile(plain.reader_lateness_ms, 0.9)));
  if (!args.trace) return;

  // ---- Traced round on a fresh service, same job count. ------------------
  running.reset();
  emp::Result<std::unique_ptr<Running>> restarted = StartService(images);
  if (!restarted.ok()) {
    report->Fail("restart: " + restarted.status().message());
    return;
  }
  running = std::move(*restarted);
  SpanRecorder spans;
  Round traced = RoundRunner(args, config, images, queries, *running,
                             &spans, report)
                     .Run(round_jobs);
  CompareWithLibrary(traced, images, queries, config, report);

  JobInternals internals;
  std::vector<double> admit_ms, poll_ms, polls, result_bytes, wait_ms, run_ms,
      bounds, p_over_bound, converged, h_improvement, iterations;
  int64_t traced_done = 0;
  for (const JobRecord& job : traced.jobs) {
    if (!job.done) continue;
    ++traced_done;
    const int root = spans.Add("job", job.id, -1,
                               spans.ToMicros(job.submit_s),
                               spans.ToMicros(job.observed_s));
    spans.Add("http.admit", job.id, root, spans.ToMicros(job.submit_s),
              spans.ToMicros(job.admitted_s));
    // The last poll observed the job terminal and carried its result: it
    // is on the job's latency path. Earlier polls overlap the queue wait
    // and the run, so they count in the poll figures but not in the share.
    for (size_t k = 0; k < job.polls.size(); ++k) {
      const auto& [start, end] = job.polls[k];
      spans.Add(k + 1 == job.polls.size() ? "http.result" : "http.poll",
                job.id, root, spans.ToMicros(start), spans.ToMicros(end));
      poll_ms.push_back((end - start) * 1e3);
    }
    const double queued_s =
        running->epoch_s + static_cast<double>(job.queued_ms) / 1e3;
    const double started_s =
        running->epoch_s + static_cast<double>(job.started_ms) / 1e3;
    const double finished_s =
        running->epoch_s + static_cast<double>(job.finished_ms) / 1e3;
    spans.Add("queue.wait", job.id, root, spans.ToMicros(queued_s),
              spans.ToMicros(started_s));
    const int run = spans.Add("job.run", job.id, root,
                              spans.ToMicros(started_s),
                              spans.ToMicros(finished_s));
    CollectJobInternals(running->server->port(), job, running->epoch_s, run,
                        &spans, &internals);
    admit_ms.push_back((job.admitted_s - job.submit_s) * 1e3);
    polls.push_back(static_cast<double>(job.polls.size()));
    result_bytes.push_back(static_cast<double>(job.result_bytes));
    wait_ms.push_back(static_cast<double>(job.started_ms - job.queued_ms));
    run_ms.push_back(static_cast<double>(job.finished_ms - job.started_ms));
    const double bound = static_cast<double>(
        images[static_cast<size_t>(job.image)].p_bound[job.query]);
    bounds.push_back(bound);
    p_over_bound.push_back(bound > 0 ? job.p / bound : 0.0);
    h_improvement.push_back(job.h_improvement);
    iterations.push_back(job.construction_iterations);
  }
  for (double it : internals.tabu_iterations) {
    converged.push_back(it < static_cast<double>(config.tabu_cap) ? 1.0
                                                                  : 0.0);
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  report->SetLayer("http.admit_ms_p50", Quantile(admit_ms, 0.5), "ms");
  report->SetLayer("http.admit_ms_p90", Quantile(admit_ms, 0.9), "ms");
  report->SetLayer("http.poll_ms_p50", Quantile(poll_ms, 0.5), "ms");
  report->SetLayer("http.polls_per_job", Mean(polls), "count");
  report->SetLayer("http.result_bytes", Median(result_bytes), "bytes");
  // Reads of both rounds, so the p90 has at least ten reads beyond it.
  std::vector<double> read_ms = plain.read_latency_ms;
  read_ms.insert(read_ms.end(), traced.read_latency_ms.begin(),
                 traced.read_latency_ms.end());
  report->SetFact("reads", std::to_string(read_ms.size()));
  report->SetLayer("http.read_ms_p50", Quantile(read_ms, 0.5), "ms");
  report->SetLayer("http.read_ms_p90", Quantile(read_ms, 0.9), "ms");
  report->SetLayer("queue.wait_ms_p50", Quantile(wait_ms, 0.5), "ms");
  report->SetLayer("queue.wait_ms_p90", Quantile(wait_ms, 0.9), "ms");
  report->SetLayer("job.run_ms_p50", Quantile(run_ms, 0.5), "ms");
  report->SetLayer("job.bind_ms", Median(internals.bind_ms), "ms");
  report->SetLayer("service.rejected", static_cast<double>(traced.rejected),
                   "count");
  report->SetLayer("service.retained_jobs",
                   static_cast<double>(traced.retained_jobs), "count");
  report->SetLayer("service.rss_per_job_kb",
                   ratio(traced.rss_growth_kb,
                         static_cast<double>(traced.jobs.size())),
                   "kB");
  report->SetLayer("feasibility.ms", Median(internals.feasibility_ms), "ms");
  report->SetLayer("construction.ms", Median(internals.construction_ms),
                   "ms");
  report->SetLayer("construction.seeding_ms", Median(internals.seeding_ms),
                   "ms");
  report->SetLayer("construction.grow_ms", Median(internals.grow_ms), "ms");
  report->SetLayer("construction.adjust_ms", Median(internals.adjust_ms),
                   "ms");
  report->SetLayer("construction.iterations", Mean(iterations), "count");
  const double tabu_ms = Median(internals.tabu_ms);
  const double tabu_iterations = Median(internals.tabu_iterations);
  report->SetLayer("tabu.ms", tabu_ms, "ms");
  report->SetLayer("tabu.iterations", tabu_iterations, "count");
  report->SetLayer("tabu.us_per_iteration",
                   ratio(tabu_ms * 1e3, tabu_iterations), "us");
  report->SetLayer("tabu.moves_applied", Median(internals.tabu_applied),
                   "count");
  report->SetLayer("tabu.converged_share", Mean(converged), "share");
  report->SetLayer("tabu.h_improvement", Mean(h_improvement), "share");
  report->SetLayer("quality.p_upper_bound", Mean(bounds), "regions");
  report->SetLayer("quality.p_over_bound", Mean(p_over_bound), "share");
  const double traced_jobs_per_s =
      traced.end_s > traced.start_s
          ? static_cast<double>(traced_done) / (traced.end_s - traced.start_s)
          : 0.0;
  report->SetLayer("trace.overhead_share",
                   ratio(plain_jobs_per_s, traced_jobs_per_s) - 1.0, "share");

  const std::map<std::string, double> self_ms = spans.SelfMillisByName();
  const double root_ms = spans.TotalMillis("job");
  const auto self_of = [&self_ms](const char* name) {
    auto it = self_ms.find(name);
    return it != self_ms.end() ? it->second : 0.0;
  };
  report->SetLayer("layer.http_share",
                   ratio(self_of("http.admit") + self_of("http.result"),
                         root_ms),
                   "share");
  report->SetLayer("layer.queue_share", ratio(self_of("queue.wait"), root_ms),
                   "share");
  report->SetLayer("layer.job_run_share", ratio(self_of("job.run"), root_ms),
                   "share");
  report->SetLayer("layer.feasibility_share",
                   ratio(self_of("feasibility"), root_ms), "share");
  report->SetLayer("layer.construction_share",
                   ratio(self_of("construction.seeding") +
                             self_of("construction.grow") +
                             self_of("construction.adjust"),
                         root_ms),
                   "share");
  report->SetLayer("layer.tabu_share", ratio(self_of("tabu"), root_ms),
                   "share");
  report->SetLayer("layer.unattributed_share", ratio(self_of("job"), root_ms),
                   "share");
  const std::string trace_path = args.out_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  if (WriteTextFile(trace_path, spans.ToChromeJson())) {
    report->SetFact("trace_file", trace_path);
  }
}

}  // namespace e2e
