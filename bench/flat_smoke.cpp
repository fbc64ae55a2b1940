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
//   3. first of all, times 200 back-to-back 50-bunch replays of the same
//      generator (the size of a campaign test) through both kernels and
//      fails if that speedup falls below three quarters of --min-speedup
//      (1.5x at CI's 2.0). A short replay exposes fixed per-replay costs
//      the long one amortises: with 4096-op (256 KiB) op-log blocks every
//      flat replay zero-filled and page-faulted 1.5 MB on the 6-disk
//      testbed, and this check read 0.29-0.32x; with 256-op blocks it
//      reads 1.6-1.7x (4-core Xeon, GCC 12, Release),
//   4. optionally writes the obs snapshot (--metrics-out=FILE) so the
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

bool same_metrics(const core::ReplayReport& a, const core::ReplayReport& b) {
  return a.perf.completions == b.perf.completions &&
         a.perf.avg_response_ms == b.perf.avg_response_ms &&
         a.joules == b.joules && a.avg_true_watts == b.avg_true_watts &&
         a.events_dispatched == b.events_dispatched;
}

/// One replay per kernel, metrics compared exactly. Any mismatch makes the
/// timing numbers meaningless.
bool check_identical(const trace::Trace& trace,
                     const storage::ArrayConfig& config) {
  core::ReplayReport classic;
  {
    core::ReplayEngine engine;
    storage::DiskArray array(engine.simulator(), config);
    classic = engine.replay(trace, array);
  }
  core::ReplayReport flat;
  {
    core::ReplayEngine engine;
    flat = engine.replay_flat(trace, config);
  }
  if (same_metrics(classic, flat)) return true;
  std::fprintf(stderr,
               "FATAL: flat kernel diverged from classic kernel on %zu "
               "bunches\n  completions %llu vs %llu\n  joules %.17g vs %.17g\n",
               trace.bunch_count(),
               static_cast<unsigned long long>(classic.perf.completions),
               static_cast<unsigned long long>(flat.perf.completions),
               classic.joules, flat.joules);
  return false;
}

/// Best-of-`reps` total time of a batch of `replays` replays through each
/// kernel, the kernels alternating replay by replay (contended CI runners
/// make means useless; the minimum is the least-noisy estimator of true
/// cost). Returns the classic/flat speedup.
double time_kernels(const char* label, const trace::Trace& trace,
                    const storage::ArrayConfig& config, std::uint64_t reps,
                    std::uint64_t replays) {
  double classic_best = 1e100;
  double flat_best = 1e100;
  for (std::uint64_t r = 0; r < reps; ++r) {
    double classic_total = 0.0;
    double flat_total = 0.0;
    for (std::uint64_t i = 0; i < replays; ++i) {
      {
        core::ReplayEngine engine;
        storage::DiskArray array(engine.simulator(), config);
        const auto t0 = std::chrono::steady_clock::now();
        (void)engine.replay(trace, array);
        classic_total += seconds_since(t0);
      }
      {
        core::ReplayEngine engine;
        const auto t0 = std::chrono::steady_clock::now();
        (void)engine.replay_flat(trace, config);
        flat_total += seconds_since(t0);
      }
    }
    classic_best = std::min(classic_best, classic_total);
    flat_best = std::min(flat_best, flat_total);
  }
  std::printf("%s: %zu bunches x %llu replays\n", label, trace.bunch_count(),
              static_cast<unsigned long long>(replays));
  std::printf("  classic:    %.3f ms\n", classic_best * 1e3);
  std::printf("  flat:       %.3f ms\n", flat_best * 1e3);
  return classic_best / flat_best;
}

/// Prints the speedup against its floor; false when gated and below it.
bool gate(double speedup, double floor) {
  std::printf("  speedup:    %.2fx (guardrail: %.2fx)\n", speedup, floor);
  if (floor > 0.0 && speedup < floor) {
    std::fprintf(stderr, "FATAL: flat speedup %.2fx below guardrail %.2fx\n",
                 speedup, floor);
    return false;
  }
  return true;
}

// Campaign-sized replays: 50 bunches, 200 back-to-back per timed batch.
constexpr std::size_t kShortBunches = 50;
constexpr std::uint64_t kShortReplays = 200;

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t bunches = flag_u64(argc, argv, "bunches", 2000);
  const std::uint64_t reps = flag_u64(argc, argv, "reps", 5);
  const double min_speedup = flag_double(argc, argv, "min-speedup", 2.0);
  const char* metrics_out = flag_value(argc, argv, "metrics-out");

  const trace::Trace trace = make_trace(bunches);
  const trace::Trace short_trace = make_trace(kShortBunches);
  const storage::ArrayConfig config = storage::ArrayConfig::hdd_testbed(6);

  // Short replays first. Freeing a large mmap'd buffer raises glibc's
  // dynamic mmap and trim thresholds for the rest of the process, and the
  // long replay frees such buffers; after it, a kernel that hands its
  // memory back to the OS and page-faults it in again on every replay
  // would no longer show that cost here.
  if (!check_identical(short_trace, config)) {
    std::printf("determinism: classic vs flat -> MISMATCH\n");
    return 1;
  }
  bool ok = gate(
      time_kernels("short", short_trace, config, reps, kShortReplays),
      0.75 * min_speedup);
  const bool identical = check_identical(trace, config);
  std::printf("determinism: classic vs flat -> %s\n",
              identical ? "IDENTICAL" : "MISMATCH");
  if (!identical) return 1;
  ok = gate(time_kernels("long", trace, config, reps, 1), min_speedup) && ok;

  if (metrics_out != nullptr) {
    obs::Registry::global().snapshot().write_json(metrics_out);
    std::printf("obs snapshot -> %s\n", metrics_out);
  }
  return ok ? 0 : 1;
}
