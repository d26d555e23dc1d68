// The Clio benchmark binary. run.py builds it and calls it as
//   clio_perfbench --workload commit|scan|mixed --seed N --seconds S
//                  --trace 0|1 [--tiny] [--source-rev REV]
// It prints a host and config stamp, one "metric" line per figure, any
// failed checks, and as its last line one JSON object with every figure.
// The exit code is 1 when an output or bypass check failed.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "clio_perfbench: %s\nusage: clio_perfbench --workload "
               "commit|scan|mixed --seed N --seconds S --trace 0|1 [--tiny] "
               "[--source-rev REV]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--source-rev") {
      args.source_rev = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    Usage("--workload and a positive --seconds are required");
  }
  return args;
}

void PrintStamp(const Args& args, const RunResult& result) {
  std::string options = "[";
  for (size_t i = 0; i < result.non_default_options.size(); ++i) {
    options += (i == 0 ? "\"" : ", \"") + result.non_default_options[i] + "\"";
  }
  options += "]";
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"tiny\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"source_rev\": \"%s\", "
      "\"burn_charge_us\": %llu, \"read_charge_us\": %llu, "
      "\"mixed_commits_per_s\": %g, \"non_default_options\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, args.source_rev.c_str(),
      static_cast<unsigned long long>(kBurnChargeUs),
      static_cast<unsigned long long>(kReadChargeUs), kMixedCommitsPerS,
      options.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  clio::TraceNowUs();  // anchor the trace clock before any span
  RunResult result = RunWorkload(args);
  PrintStamp(args, result);
  result.sheet.Print();
  for (const std::string& failure : result.check_failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.sheet.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
