// The benchmark's three workloads. Each runs its set-up several times, then
// repeats its unit of work (one whole campaign, or one replay of the stream
// trace) until the measuring time is used up, once untraced and, in a
// traced run, once more with spans on. It returns the raw measurements as
// one JSON object; run.py turns them into the named metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;           ///< explicit, at most the usable CPUs
  std::filesystem::path work_dir;    ///< private repository, journals, files
  std::filesystem::path span_file;   ///< traced runs write their spans here
  std::string expect_digest;         ///< pinned digest; empty = not pinned
  std::size_t inject_fail = 0;       ///< make the first N tests of a unit fail
};

/// Measuring time of one phase: a traced run splits its time between the
/// untraced and the traced phase, so both kinds of run take as long.
inline double phase_seconds(const RunConfig& config) {
  return config.trace ? config.seconds / 2.0 : config.seconds;
}

/// Set-up repetitions per run, back to back before the measured phases;
/// the first one's output is what the units use.
inline constexpr std::size_t kSetupReps = 15;

std::string run_campaign(const RunConfig& config);
std::string run_fleet(const RunConfig& config);
std::string run_stream(const RunConfig& config);

}  // namespace perfbench
