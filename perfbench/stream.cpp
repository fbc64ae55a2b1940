// `stream`: a long web-server-shaped trace, written as a v1 `.replay` file,
// converted to `.replay2`, and replayed by one thread from a ColumnarSource
// with consumed-page eviction. Traffic and target are those of
// bench/technique_cache_spindown (hot_set_trace at its top rate, and its
// tier+spin variant): Poisson arrivals, 98 % of them to an 8-line hot set
// of 64 KiB lines, 95 % reads, into a small DRAM cache spilling into an SSD
// tier over hdd_testbed(6) under a SpinDownManager. The cache absorbs the
// hot set, so the spindles see only the cold tail and sit idle past the
// spin-down timeout between its requests. Trace decode and windowing,
// cache hits and power-state changes carry the cost here.
#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/replay_engine.h"
#include "obs/span.h"
#include "probe.h"
#include "storage/disk_array.h"
#include "storage/power_policy.h"
#include "trace/blk_format.h"
#include "trace/columnar_format.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tracer;

// hot_set_trace's parameters at its highest rate; only the length differs
// (a fixed request count instead of its 600 s, so every seed replays the
// same packages and about the same simulated time).
constexpr std::uint64_t kBunches = 40000;
constexpr double kIops = 8.0;
constexpr double kHotFraction = 0.98;
constexpr Sector kLineSectors = 128;  // 64 KiB lines
constexpr int kDecodePasses = 3;
constexpr std::size_t kWindowBunches = 1024;  ///< 40 windows per replay

/// Calls `emit(timestamp, package)` for each of the kBunches bunches.
template <typename Emit>
void generate(std::uint64_t seed, Emit&& emit) {
  util::Rng rng(seed);
  double t = 0.0;
  for (std::uint64_t b = 0; b < kBunches; ++b) {
    t += rng.exponential(1.0 / kIops);
    trace::IoPackage pkg;
    const bool hot = rng.chance(kHotFraction);
    pkg.sector = hot ? rng.below(8) * kLineSectors
                     : (64 + rng.below(1ULL << 20)) * kLineSectors;
    pkg.bytes = 64 * kKiB;
    pkg.op = rng.chance(0.95) ? OpType::kRead : OpType::kWrite;
    emit(t, pkg);
  }
}

struct Written {
  std::filesystem::path v2;
  std::uint64_t bunches = 0;
  std::uint64_t packages = 0;
  std::uint64_t checksum = 0;  ///< sum of sector ^ bytes over all packages
  double duration_s = 0.0;
};

struct ReplayStat {
  double seconds = 0.0;
  double replay_call_s = 0.0;  ///< inside ReplayEngine::replay
  double sim_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t bunches = 0;
  std::uint64_t packages = 0;
  std::uint64_t events = 0;
  std::uint64_t late = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t tier_hits = 0;
  std::uint64_t spin_ups = 0;
  std::uint64_t power_samples = 0;
  std::string digest;
  bool failed = false;
};

ReplayStat replay_once(const RunConfig& config, const Written& written,
                       bool inject) {
  TRACER_SPAN("stream.test");
  ReplayStat stat;
  const obs::Snapshot before = obs::Registry::global().snapshot();
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  trace::ColumnarSource::Options source_options;
  source_options.window_bunches = kWindowBunches;
  source_options.evict_consumed = true;
  std::shared_ptr<const trace::TraceSource> source;
  {
    TRACER_SPAN("trace.open_source");
    source = trace::open_columnar_source(written.v2.string(), source_options);
  }
  auto array_config = storage::ArrayConfig::hdd_testbed(6);
  array_config.cache.enabled = true;
  array_config.cache.capacity = 256 * kKiB;  // 4 lines < the 8-line hot set
  array_config.cache.tier_enabled = true;
  array_config.cache.tier_capacity = 8 * kMiB;
  std::optional<core::ReplayEngine> engine;
  std::optional<storage::DiskArray> array;
  std::optional<storage::SpinDownManager> manager;
  std::optional<storage::CacheTier> cache;
  {
    TRACER_SPAN("stream.build_target");
    core::ReplayOptions options;
    options.sensor_seed = config.seed ^ 0x9e3779b9ULL;
    engine.emplace(options);
    array.emplace(engine->simulator(), array_config);
    storage::SpinDownPolicyParams policy;
    policy.idle_timeout = 10.0;
    policy.min_active_disks = 1;
    manager.emplace(engine->simulator(), array->hdd_disks(), policy);
    manager->schedule(0.0, written.duration_s);
    cache.emplace(engine->simulator(), array_config.cache, *array);
  }
  const double r0 = now_s();
  const core::ReplayReport report = engine->replay(*source, *cache);
  stat.replay_call_s = now_s() - r0;
  stat.seconds = now_s() - t0;
  stat.cpu_s = process_cpu_s() - cpu0;
  stat.peak_rss_mb = peak_rss_mb();
  const obs::Snapshot after = obs::Registry::global().snapshot();

  stat.sim_s = report.replay_duration;
  stat.bunches = report.bunches_replayed;
  stat.packages = report.packages_replayed;
  stat.events = report.events_dispatched;
  stat.late = report.late_schedules;
  stat.cache_hits = cache->stats().hits;
  stat.cache_misses = cache->stats().misses;
  stat.tier_hits = cache->stats().tier_hits;
  for (const storage::HddModel* disk : array->hdd_disks()) {
    stat.spin_ups += disk->spin_ups();
  }
  stat.power_samples = delta(before, after, "power.samples");

  RecordDigest digest;
  digest.add_line(util::format(
      "%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%llu|%llu|%llu|%llu|%llu|"
      "%llu|%llu|%llu",
      report.perf.iops, report.perf.mbps, report.perf.avg_response_ms,
      report.avg_watts, report.avg_true_watts, report.joules,
      report.replay_duration,
      static_cast<unsigned long long>(stat.bunches),
      static_cast<unsigned long long>(stat.packages),
      static_cast<unsigned long long>(stat.events),
      static_cast<unsigned long long>(stat.cache_hits),
      static_cast<unsigned long long>(stat.cache_misses),
      static_cast<unsigned long long>(stat.tier_hits),
      static_cast<unsigned long long>(stat.spin_ups),
      static_cast<unsigned long long>(manager->spin_downs())));
  stat.digest = digest.hex();
  stat.failed = inject || stat.late != 0 || stat.bunches != written.bunches ||
                stat.packages != written.packages;
  return stat;
}

/// Decode-only pass: every bunch's packages through a second source.
double decode_pass(const Written& written, std::uint64_t& checksum) {
  TRACER_SPAN("trace.decode_pass");
  trace::ColumnarSource::Options source_options;
  source_options.window_bunches = kWindowBunches;
  source_options.evict_consumed = true;
  const auto source =
      trace::open_columnar_source(written.v2.string(), source_options);
  const double t0 = now_s();
  for (std::size_t i = 0; i < source->bunch_count(); ++i) {
    for (const trace::IoPackage& pkg : source->packages(i)) {
      checksum += pkg.sector ^ pkg.bytes;
    }
  }
  return now_s() - t0;
}

std::string stat_json(const ReplayStat& s) {
  return Json()
      .num("wall_s", s.seconds)
      .num("replay_call_s", s.replay_call_s)
      .num("cpu_s", s.cpu_s)
      .num("peak_rss_mb", s.peak_rss_mb)
      .num("sim_s", s.sim_s)
      .integer("bunches", s.bunches)
      .integer("packages", s.packages)
      .integer("events", s.events)
      .integer("late", s.late)
      .integer("cache_hits", s.cache_hits)
      .integer("cache_misses", s.cache_misses)
      .integer("tier_hits", s.tier_hits)
      .integer("spin_ups", s.spin_ups)
      .integer("power_samples", s.power_samples)
      .str("digest", s.digest)
      .boolean("failed", s.failed)
      .text();
}

/// One set-up repetition: write the v1 trace and convert it to `v2`.
/// Returns the written file's description; adds the set-up and conversion
/// times to the two lists.
Written write_trace(const RunConfig& config, const std::filesystem::path& v2,
                    std::vector<double>& setup_s,
                    std::vector<double>& convert_s) {
  auto v1 = v2;
  v1.replace_extension(".replay");
  Written written;
  written.v2 = v2;
  written.bunches = kBunches;
  written.packages = kBunches;
  const double t0 = now_s();
  {
    std::ofstream out(v1, std::ios::binary | std::ios::trunc);
    trace::BlkStreamWriter writer(out, "webserver-hotset", kBunches);
    std::vector<trace::IoPackage> packages(1);
    generate(config.seed, [&](double t, const trace::IoPackage& pkg) {
      packages[0] = pkg;
      writer.add(t, packages);
      written.duration_s = t + 1.0;
      written.checksum += pkg.sector ^ pkg.bytes;
    });
    writer.finish();
  }
  const double t1 = now_s();
  const std::uint64_t converted =
      trace::convert_blk_to_columnar(v1.string(), v2.string());
  const double t2 = now_s();
  setup_s.push_back(t2 - t0);
  convert_s.push_back(t2 - t1);
  std::filesystem::remove(v1);
  if (converted != kBunches) {
    throw std::runtime_error(util::format(
        "converted %llu of %llu bunches",
        static_cast<unsigned long long>(converted),
        static_cast<unsigned long long>(kBunches)));
  }
  return written;
}

}  // namespace

std::string run_stream(const RunConfig& config) {
  std::vector<double> setup_s;
  std::vector<double> convert_s;
  // Set-ups run untraced in every run mode. The first one writes the file
  // every replay reads.
  const Written written =
      write_trace(config, config.work_dir / "stream.replay2", setup_s, convert_s);
  while (setup_s.size() < kSetupReps) {
    const auto v2 = config.work_dir / "stream-repeat.replay2";
    write_trace(config, v2, setup_s, convert_s);
    std::filesystem::remove(v2);
  }

  std::string phases;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_digest;  ///< of the run's first replay
  std::vector<Check> failed_checks;
  for (const bool traced : {false, true}) {
    if (traced && !config.trace) break;
    set_tracing(traced);
    std::vector<ReplayStat> stats;
    const double start = now_s();
    do {
      stats.push_back(replay_once(config, written,
                                  stats.size() < config.inject_fail));
    } while (now_s() - start < phase_seconds(config));
    const double phase_wall = now_s() - start;
    set_tracing(false);

    if (first_digest.empty()) first_digest = stats.front().digest;
    std::string units = "[";
    for (std::size_t i = 0; i < stats.size(); ++i) {
      ReplayStat& s = stats[i];
      if (s.digest != first_digest) s.failed = true;
      if (!config.expect_digest.empty() && s.digest != config.expect_digest) {
        s.failed = true;
      }
      units += (i ? "," : "") + stat_json(s);
      ++attempted;
      if (s.failed) ++failed;
    }
    const auto count_failed = [&stats](auto pred) {
      return std::count_if(stats.begin(), stats.end(), pred);
    };
    const Check checks[] = {
        {"stream.counts_equal_written",
         count_failed([&](const ReplayStat& s) {
           return s.bunches != written.bunches || s.packages != written.packages;
         }) == 0,
         util::format("%llu bunches / %llu packages written",
                      static_cast<unsigned long long>(written.bunches),
                      static_cast<unsigned long long>(written.packages))},
        {"replay.late_schedules_zero",
         count_failed([](const ReplayStat& s) { return s.late != 0; }) == 0,
         ""},
        {"determinism.same_as_first_replay",
         count_failed([&](const ReplayStat& s) {
           return s.digest != first_digest;
         }) == 0,
         first_digest},
        {"digest.pinned",
         config.expect_digest.empty() || first_digest == config.expect_digest,
         first_digest + " vs pinned " + config.expect_digest},
    };
    for (const Check& c : checks) {
      if (!c.ok) failed_checks.push_back(c);
    }

    Json phase;
    phase.boolean("traced", traced)
        .num("wall_s", phase_wall)
        .raw("units", units + "]");
    if (traced) {
      std::vector<double> decode_s;
      for (int pass = 0; pass < kDecodePasses; ++pass) {
        std::uint64_t checksum = 0;
        decode_s.push_back(decode_pass(written, checksum));
        if (checksum != written.checksum) {
          failed_checks.push_back({"trace.decode_equals_written", false,
                                   "decode-only pass read other packages"});
        }
      }
      phase.nums("decode_s", decode_s);
      phase.raw("spans", span_totals_json());
    }
    phases += (phases.empty() ? "" : ",") + phase.text();
  }
  if (config.trace) write_spans(config.span_file);

  return Json()
      .str("workload", "stream")
      .integer("threads", 1)
      .integer("workers", 1)
      .nums("setup_s", setup_s)
      .nums("setup_convert_s", convert_s)
      .integer("trace_bunches", written.bunches)
      .integer("trace_packages", written.packages)
      .num("trace_sim_s", written.duration_s)
      .num("trace_file_mb",
           static_cast<double>(std::filesystem::file_size(written.v2)) / 1e6)
      .raw("phases", "[" + phases + "]")
      .integer("attempted", attempted)
      .integer("failed", failed)
      .str("digest", first_digest)
      .raw("failed_checks", checks_json(failed_checks))
      .text();
}

}  // namespace perfbench
