// costsense_perfbench: runs one benchmark workload and prints the result
// line (see README.md). Usually driven through run.py, which builds it.
//
//   costsense_perfbench --workload sweep_cold|sweep_narrow|serve_warm
//       --seed N --seconds S --trace 0|1 --root DIR --work-dir DIR
//
// The worker pool and the client count are the CPUs this process may run
// on (sched_getaffinity, as `nproc` counts them).
//
// Human-readable notes go to stderr; stdout carries one JSON line of build
// metadata, then the JSON result line. Exit code 0 when the run completed
// (correct or not), 2 on bad arguments, 3 for a non-Release build.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "costsense_perfbench: %s\n"
               "usage: costsense_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --root DIR --work-dir DIR\n",
               why);
  return 2;
}

size_t HostThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.threads = HostThreads();
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "costsense_perfbench: refusing a %s build; numbers only "
                 "compare between Release builds\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::RunResult result;
  if (args.workload == "sweep_cold") {
    result = perfbench::RunSweep(args, /*narrow=*/false);
  } else if (args.workload == "sweep_narrow") {
    result = perfbench::RunSweep(args, /*narrow=*/true);
  } else if (args.workload == "serve_warm") {
    result = perfbench::RunServeWarm(args);
  } else {
    return Usage("unknown workload (sweep_cold, sweep_narrow, serve_warm)");
  }

  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), note.c_str());
  }
  // Build metadata on its own line, ahead of the result line.
  std::printf(
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"threads\": %zu, "
      "\"seed\": %llu}\n",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, args.threads,
      static_cast<unsigned long long>(args.seed));
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
