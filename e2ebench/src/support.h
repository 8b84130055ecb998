// Shared pieces of the end-to-end benchmark: run arguments, the metric
// report, order statistics, process memory probes, seeded instance images,
// the combinatorial bound on p, and the answer check every solve goes
// through.
#ifndef EMP_E2EBENCH_SUPPORT_H_
#define EMP_E2EBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "data/area_set.h"

namespace e2e {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrinks to a few hundred areas.
  bool tiny = false;
  /// Self-test hook: the first answer is corrupted before it is checked,
  /// so the run must count a failure and exit non-zero.
  bool corrupt = false;
  /// Directory for packed images, the results file and the Chrome trace.
  std::string out_dir;
};

inline constexpr char kSumQuery[] = "SUM(TOTALPOP) >= 20000";
inline constexpr char kMixedQuery[] =
    "MIN(POP16UP) <= 3000 AND AVG(EMPLOYED) IN [1500, 3500] AND "
    "SUM(TOTALPOP) >= 20000";

/// Seconds on the steady clock.
double NowSeconds();

/// Mixes a workload tag and the run seed into an instance seed.
uint64_t DeriveSeed(uint64_t run_seed, uint64_t stream);

/// Order statistics with linear interpolation between ranks; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Returns freed heap to the OS and resets the kernel's peak-RSS mark
/// (VmHWM) to the current RSS, so a later PeakRssMb() covers only what
/// follows.
void ResetPeakRss();
double PeakRssMb();
double CurrentRssKb();

/// Synthesizes a seeded census-like map of `num_areas` areas and packs it
/// to a compact image at `path`. Returns the instance digest (16 hex).
emp::Result<std::string> WriteSeededImage(const std::string& name,
                                          int32_t num_areas, uint64_t seed,
                                          const std::string& path);

/// Writes `text` to `path`; false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& text);

/// The cheap combinatorial upper bound on p: floor(sum / l) over valid
/// areas for each SUM >= l (and floor(n / l) for COUNT >= l), the seed-area
/// count of each MIN/MAX constraint, and the valid-area count; the
/// smallest applies.
emp::Result<int64_t> PUpperBound(const emp::AreaSet& areas,
                                 const std::vector<emp::Constraint>& query);

/// The independent answer check: ValidateAssignment must accept the
/// assignment and count exactly `expected_p` regions. Returns an empty
/// string when the answer is valid, otherwise the reason.
std::string CheckAnswer(const emp::AreaSet& areas,
                        const std::vector<emp::Constraint>& query,
                        const std::vector<int32_t>& region_of,
                        int32_t expected_p);

/// Metrics, correctness counts and run facts of one benchmark run,
/// written as the results document. Thread-safe.
class Report {
 public:
  void SetEndToEnd(const std::string& name, double value,
                   const std::string& unit);
  void SetLayer(const std::string& name, double value,
                const std::string& unit);
  void SetFact(const std::string& key, const std::string& value);
  /// Sets every (name, unit) of `catalog` not set yet to 0.
  void FillMissingLayers(
      const std::vector<std::pair<const char*, const char*>>& catalog);
  void AddAttempted(int64_t n);
  /// Counts one failed operation and keeps the first few reasons.
  void Fail(const std::string& reason);

  int64_t attempted() const;
  int64_t failed() const;
  std::string ToJson() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  mutable std::mutex mu_;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  std::map<std::string, std::string> facts_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace e2e

#endif  // EMP_E2EBENCH_SUPPORT_H_
