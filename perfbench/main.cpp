// replay_bench: runs one benchmark workload and prints its raw
// measurements as one JSON line. Driven by perfbench/run.py, which builds
// this binary, passes the seed, thread count and measuring time, and turns
// the raw figures into the metrics named in BENCHMARK.json.
//
//   replay_bench --workload campaign|stream|fleet --seed N --seconds S
//                --threads T --work-dir DIR [--trace 0|1] [--span-file F]
//                [--expect-digest HEX] [--inject-fail N]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probe.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload "
               "campaign|stream|fleet --seed N --seconds S --threads T "
               "--work-dir DIR [--trace 0|1] [--span-file F] "
               "[--expect-digest HEX] [--inject-fail N]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--threads") {
      config.threads = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--span-file") {
      config.span_file = value;
    } else if (flag == "--expect-digest") {
      config.expect_digest = value;
    } else if (flag == "--inject-fail") {
      config.inject_fail = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.work_dir.empty()) usage("--work-dir is required");
  if (config.threads == 0 || config.threads > perfbench::usable_cpus()) {
    usage("--threads must be between 1 and the usable CPU count");
  }
  if (config.trace && config.span_file.empty()) {
    config.span_file = config.work_dir / "spans.json";
  }
  try {
    std::filesystem::create_directories(config.work_dir);
    std::string result;
    if (config.workload == "campaign") {
      result = perfbench::run_campaign(config);
    } else if (config.workload == "fleet") {
      result = perfbench::run_fleet(config);
    } else if (config.workload == "stream") {
      result = perfbench::run_stream(config);
    } else {
      usage("unknown workload");
    }
    std::printf("%s\n",
                perfbench::Json()
                    .raw("result", result)
                    .str("build_type", PERFBENCH_BUILD_TYPE)
                    .str("compiler", PERFBENCH_COMPILER)
                    .integer("usable_cpus", perfbench::usable_cpus())
                    .text()
                    .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
