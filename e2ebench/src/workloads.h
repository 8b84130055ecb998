// The benchmark's workloads. Each runs set-up and the measurement, plus
// traced solves or jobs with --trace 1; metrics, answer checks and failures
// go into the report.
#ifndef EMP_E2EBENCH_WORKLOADS_H_
#define EMP_E2EBENCH_WORKLOADS_H_

#include "support.h"

namespace e2e {

/// tabu_10k and construct_250k: library solves of a seeded packed image
/// through LoadAreaSetAuto and FactSolver::Create/Solve.
void RunLibraryWorkload(const RunArgs& args, Report* report);

/// service_mixed: SolveService behind obs::HttpServer, driven over
/// loopback sockets by closed-loop submitters and an open-loop reader.
void RunServiceWorkload(const RunArgs& args, Report* report);

}  // namespace e2e

#endif  // EMP_E2EBENCH_WORKLOADS_H_
