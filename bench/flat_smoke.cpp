// Flat-replay perf guardrail + determinism smoke (CI: bench-smoke job).
//
// Replays one RAID-5 write-heavy trace through both kernels and
//   1. asserts the flat kernel's metrics are bit-identical to the classic
//      kernel's (the determinism contract, re-proven in Release mode on
//      every CI run, not just in the unit suite),
//   2. times both and fails if the flat kernel's speedup falls below
//      --min-speedup (default 2.0) — the regression tripwire for the flat
//      kernel's perf win. Pass --min-speedup=0 to record without gating
//      (CI offers the `skip-perf-guardrail` label for noisy runners),
//   3. optionally writes the obs snapshot (--metrics-out=FILE) so the
//      flat kernel's counters (replay.flat.*) land in a CI artifact.
//
//   flat_smoke [--bunches=N] [--reps=R] [--min-speedup=F]
//              [--metrics-out=FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/replay_engine.h"
#include "obs/registry.h"
#include "storage/disk_array.h"
#include "trace/trace.h"

namespace {

using namespace tracer;

const char* flag_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

std::uint64_t flag_u64(int argc, char** argv, const char* name,
                       std::uint64_t fallback) {
  const char* v = flag_value(argc, argv, name);
  return v ? std::strtoull(v, nullptr, 10) : fallback;
}

double flag_double(int argc, char** argv, const char* name, double fallback) {
  const char* v = flag_value(argc, argv, name);
  return v ? std::strtod(v, nullptr) : fallback;
}

trace::Trace make_trace(std::size_t bunches) {
  trace::Trace trace;
  trace.device = "flat-smoke";
  std::uint64_t state = 12345;
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.001;
    for (std::size_t p = 0; p < 4; ++p) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      bunch.packages.push_back(
          trace::IoPackage{(state >> 16) % (1 << 22),
                           4096 + (state >> 40) % 16 * 4096,
                           (state >> 7) % 2 ? OpType::kRead : OpType::kWrite});
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t bunches = flag_u64(argc, argv, "bunches", 2000);
  const std::uint64_t reps = flag_u64(argc, argv, "reps", 5);
  const double min_speedup = flag_double(argc, argv, "min-speedup", 2.0);
  const char* metrics_out = flag_value(argc, argv, "metrics-out");

  const trace::Trace trace = make_trace(bunches);
  const storage::ArrayConfig config = storage::ArrayConfig::hdd_testbed(6);

  // Determinism first: one replay through each kernel, metrics compared
  // exactly. Any mismatch makes the timing numbers meaningless.
  core::ReplayReport classic_report;
  {
    core::ReplayEngine engine;
    storage::DiskArray array(engine.simulator(), config);
    classic_report = engine.replay(trace, array);
  }
  core::ReplayReport flat_report;
  {
    core::ReplayEngine engine;
    flat_report = engine.replay_flat(trace, config);
  }
  const bool identical =
      classic_report.perf.completions == flat_report.perf.completions &&
      classic_report.perf.avg_response_ms ==
          flat_report.perf.avg_response_ms &&
      classic_report.joules == flat_report.joules &&
      classic_report.avg_true_watts == flat_report.avg_true_watts &&
      classic_report.events_dispatched == flat_report.events_dispatched;
  std::printf("determinism: classic vs flat -> %s\n",
              identical ? "IDENTICAL" : "MISMATCH");
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: flat kernel diverged from classic kernel\n"
                 "  completions %llu vs %llu\n  joules %.17g vs %.17g\n",
                 static_cast<unsigned long long>(
                     classic_report.perf.completions),
                 static_cast<unsigned long long>(
                     flat_report.perf.completions),
                 classic_report.joules, flat_report.joules);
    return 1;
  }

  // Timing: best-of-reps for each kernel (contended CI runners make means
  // useless; the minimum is the least-noisy estimator of true cost).
  double classic_best = 1e100;
  double flat_best = 1e100;
  for (std::uint64_t r = 0; r < reps; ++r) {
    {
      core::ReplayEngine engine;
      storage::DiskArray array(engine.simulator(), config);
      const auto t0 = std::chrono::steady_clock::now();
      (void)engine.replay(trace, array);
      classic_best = std::min(classic_best, seconds_since(t0));
    }
    {
      core::ReplayEngine engine;
      const auto t0 = std::chrono::steady_clock::now();
      (void)engine.replay_flat(trace, config);
      flat_best = std::min(flat_best, seconds_since(t0));
    }
  }
  const double speedup = classic_best / flat_best;
  std::printf("classic:      %.3f ms\n", classic_best * 1e3);
  std::printf("flat:         %.3f ms\n", flat_best * 1e3);
  std::printf("speedup:      %.2fx (guardrail: %.2fx)\n", speedup,
              min_speedup);

  if (metrics_out != nullptr) {
    obs::Registry::global().snapshot().write_json(metrics_out);
    std::printf("obs snapshot -> %s\n", metrics_out);
  }

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FATAL: flat speedup %.2fx below guardrail %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}
