#include "support.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json_writer.h"
#include "constraints/constraint_set.h"
#include "core/feasibility.h"
#include "core/validate.h"
#include "data/compact/writer.h"
#include "data/synthetic/dataset_catalog.h"
#include "obs/journal.h"

namespace e2e {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = run_seed * 0x9E3779B97F4A7C15ULL +
               stream * 0xD1B54A32D192ED03ULL + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

/// Reads one "Key:   <n> kB" line of /proc/self/status.
double ProcStatusKb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() { return ProcStatusKb("VmHWM") / 1024.0; }

double CurrentRssKb() { return ProcStatusKb("VmRSS"); }

emp::Result<std::string> WriteSeededImage(const std::string& name,
                                          int32_t num_areas, uint64_t seed,
                                          const std::string& path) {
  EMP_ASSIGN_OR_RETURN(emp::AreaSet areas,
                       emp::synthetic::MakeDefaultDataset(name, num_areas,
                                                          seed));
  EMP_RETURN_IF_ERROR(emp::compact::WriteCompactFile(areas, path));
  return emp::obs::DigestHex(areas.InstanceDigest());
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

emp::Result<int64_t> PUpperBound(const emp::AreaSet& areas,
                                 const std::vector<emp::Constraint>& query) {
  EMP_ASSIGN_OR_RETURN(emp::BoundConstraints bound,
                       emp::BoundConstraints::Create(&areas, query));
  EMP_ASSIGN_OR_RETURN(emp::FeasibilityReport feasibility,
                       emp::CheckFeasibility(bound));
  int64_t best = feasibility.num_valid_areas;
  for (int64_t seeds : feasibility.seeds_per_extrema_constraint) {
    best = std::min(best, seeds);
  }
  for (const emp::Constraint& c : query) {
    if (!(c.lower > 0.0) || !std::isfinite(c.lower)) continue;
    if (c.aggregate == emp::Aggregate::kCount) {
      best = std::min(best, static_cast<int64_t>(std::floor(
                                static_cast<double>(
                                    feasibility.num_valid_areas) /
                                c.lower)));
    } else if (c.aggregate == emp::Aggregate::kSum) {
      EMP_ASSIGN_OR_RETURN(int column,
                           areas.attributes().ColumnIndex(c.attribute));
      const std::span<const double> values =
          areas.attributes().Column(column);
      double sum = 0.0;
      for (size_t a = 0; a < values.size(); ++a) {
        if (!feasibility.is_invalid[a]) sum += values[a];
      }
      best = std::min(best, static_cast<int64_t>(std::floor(sum / c.lower)));
    }
  }
  return best;
}

std::string CheckAnswer(const emp::AreaSet& areas,
                        const std::vector<emp::Constraint>& query,
                        const std::vector<int32_t>& region_of,
                        int32_t expected_p) {
  emp::Result<emp::ValidationReport> report =
      emp::ValidateAssignment(areas, query, region_of);
  if (!report.ok()) return "validator error: " + report.status().message();
  if (!report->valid) return "invalid answer: " + report->ToString();
  if (report->p != expected_p) {
    return "answer claims p=" + std::to_string(expected_p) +
           " but the assignment has " + std::to_string(report->p) +
           " regions";
  }
  return "";
}

void Report::SetEndToEnd(const std::string& name, double value,
                         const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  end_to_end_[name] = {value, unit};
}

void Report::SetLayer(const std::string& name, double value,
                      const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  per_layer_[name] = {value, unit};
}

void Report::SetFact(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  facts_[key] = value;
}

void Report::FillMissingLayers(
    const std::vector<std::pair<const char*, const char*>>& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, unit] : catalog) {
    per_layer_.try_emplace(name, Metric{0.0, unit});
  }
}

void Report::AddAttempted(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Fail(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(reason);
}

int64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  emp::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(failed_ == 0);
  w.Key("attempted");
  w.Int(attempted_);
  w.Key("failed");
  w.Int(failed_);
  const auto write_metrics = [&w](const std::map<std::string, Metric>& m) {
    w.BeginObject();
    for (const auto& [name, metric] : m) {
      w.Key(name);
      w.BeginInlineObject();
      w.Key("value");
      w.Double(metric.value, 17);
      w.Key("unit");
      w.String(metric.unit);
      w.EndObject();
    }
    w.EndObject();
  };
  w.Key("end_to_end");
  write_metrics(end_to_end_);
  w.Key("per_layer");
  write_metrics(per_layer_);
  w.Key("facts");
  w.BeginObject();
  for (const auto& [key, value] : facts_) {
    w.Key(key);
    w.String(value);
  }
  w.EndObject();
  w.Key("failures");
  w.BeginArray();
  for (const std::string& reason : failures_) w.String(reason);
  w.EndArray();
  w.EndObject();
  return std::move(w).TakeString() + "\n";
}

}  // namespace e2e
