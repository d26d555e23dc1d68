// The three workloads (README.md explains why each exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct RunResult {
  Sheet sheet;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Output and bypass checks that did not hold; any entry fails the run.
  std::vector<std::string> check_failures;
  // Server and service options this workload sets away from the defaults.
  std::vector<std::string> non_default_options;
};

// Runs args.workload ("commit", "scan" or "mixed"). Set-up failures end the
// process with a message on stderr; failed ops and checks land in the
// result.
RunResult RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
