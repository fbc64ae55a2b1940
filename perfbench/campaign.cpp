// `campaign` and `fleet`: the paper's §VI grid (125 synthetic modes x 10
// load levels) on the HDD RAID-5 testbed. `campaign` runs it through
// EvaluationHost + CampaignRunner on a pool of `threads` (closed loop: a
// thread takes its next test when the last one finished). `fleet` shards
// the same grid with CampaignCoordinator over in-process links to
// threads - 1 CampaignWorkerService threads whose executors call
// EvaluationHost::run_test; its short collection window makes each test
// cheap, so leases, framing, journal merge and polling carry weight.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "core/campaign.h"
#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "core/evaluation_host.h"
#include "core/metrics.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "obs/span.h"
#include "probe.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tracer;

// Collection windows (simulated seconds of saturation trace per mode). The
// campaign's is twice bench/campaign_1250's 2 s, so replay dominates, while
// one campaign stays a quarter second and a run holds a hundred of them;
// the fleet's is short so coordination shows.
constexpr double kCampaignWindow = 4.0;
constexpr double kFleetWindow = 1.0;
constexpr double kLoadLevels[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                  0.6, 0.7, 0.8, 0.9, 1.0};
constexpr std::size_t kLevels = std::size(kLoadLevels);
constexpr std::size_t kFleetSampleStride = 25;  ///< direct re-run sample

struct Grid {
  std::string device;
  std::vector<workload::WorkloadMode> modes;  ///< one per synthetic mode
  std::vector<workload::WorkloadMode> tests;  ///< mode-major, 10 loads each
  std::unordered_map<std::string, std::size_t> index;

  explicit Grid(std::string device_name) : device(std::move(device_name)) {
    modes = workload::synthetic_grid();
    for (const workload::WorkloadMode& base : modes) {
      for (const double load : kLoadLevels) {
        workload::WorkloadMode mode = base;
        mode.load_proportion = load;
        index.emplace(key(mode), tests.size());
        tests.push_back(mode);
      }
    }
  }
  std::string key(const workload::WorkloadMode& mode) const {
    return db::CampaignJournal::key(mode.trace_key(device).file_name(),
                                    mode.load_proportion);
  }
  std::size_t index_of(const workload::WorkloadMode& mode) const {
    return index.at(key(mode));
  }
};

struct TestStat {
  bool done = false;
  double seconds = 0.0;  ///< host time inside EvaluationHost::run_test
  double sim_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t late = 0;
  std::uint64_t packages = 0;
  std::uint64_t bunches = 0;
};

struct Unit {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double coord_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< VmHWM over this unit alone
  std::vector<TestStat> stats;
  std::vector<db::TestRecord> records;  ///< grid order; freed once checked
  std::vector<bool> test_failed;
  bool unit_failed = false;
  std::vector<Check> checks;
  std::string digest;
  double load_err_pct = 0.0;
  double journal_bytes = 0.0;
  std::uint64_t resumed = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t records_merged = 0;
  obs::Snapshot before;
  obs::Snapshot after;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
    if (!ok) unit_failed = true;
  }
  std::size_t failed() const {
    if (unit_failed) return stats.size();
    return static_cast<std::size_t>(
        std::count(test_failed.begin(), test_failed.end(), true));
  }
};

double file_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

core::EvaluationOptions host_options(const RunConfig& config, double window) {
  core::EvaluationOptions options;
  options.collection_duration = window;
  options.sampling_cycle = 1.0;
  options.threads = config.threads;
  options.seed = config.seed;
  return options;
}

struct Collected {
  double seconds = 0.0;
  double generate_s = 0.0;  ///< host.phase.generate thread-seconds
  std::unique_ptr<core::EvaluationHost> host;  ///< the host that filled it
};

/// One set-up repetition: collect the 125 peak traces into the empty
/// repository `dir`.
Collected collect_peaks(const RunConfig& config, const Grid& grid,
                        double window, const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  Collected result;
  result.host = std::make_unique<core::EvaluationHost>(
      storage::ArrayConfig::hdd_testbed(6), dir, host_options(config, window));
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const double t0 = now_s();
  {
    util::ThreadPool pool(config.threads);
    pool.parallel_for(grid.modes.size(), [&](std::size_t i) {
      result.host->peak_trace_shared(grid.modes[i]);
    });
  }
  result.seconds = now_s() - t0;
  result.generate_s =
      static_cast<double>(delta(before, obs::Registry::global().snapshot(),
                                "host.phase.generate.us")) /
      1e6;
  return result;
}

/// The executor both workloads hand to the program: one test through
/// EvaluationHost::run_test, with its host time and replay counts kept.
db::TestRecord timed_test(core::EvaluationHost& host, const Grid& grid,
                          Unit& unit, const workload::WorkloadMode& mode) {
  TRACER_SPAN("test");
  const std::size_t i = grid.index_of(mode);
  const double t0 = now_s();
  core::TestResult result = host.run_test(mode);
  TestStat& stat = unit.stats[i];
  stat.seconds = now_s() - t0;
  stat.sim_s = result.report.replay_duration;
  stat.events = result.report.events_dispatched;
  stat.late = result.report.late_schedules;
  stat.packages = result.report.packages_replayed;
  stat.bunches = result.report.bunches_replayed;
  stat.done = true;
  return std::move(result.record);
}

/// Worst IOPS load-control error over the grid, in percent (as
/// bench/campaign_1250 reports it).
double load_error_pct(const std::vector<db::TestRecord>& records) {
  double worst = 0.0;
  for (std::size_t m = 0; m + kLevels <= records.size(); m += kLevels) {
    const double base_iops = records[m + kLevels - 1].iops;
    if (base_iops <= 0.0) continue;
    for (std::size_t l = 0; l < kLevels; ++l) {
      const double accuracy = core::load_control_accuracy(
          core::load_proportion(base_iops, records[m + l].iops),
          kLoadLevels[l]);
      worst = std::max(worst, std::abs(accuracy - 1.0));
    }
  }
  return worst * 100.0;
}

/// §VI shape claims, as hard checks: power tracks throughput within a
/// mode; the IOPS/W and MBPS/kW extremes sit where the paper puts them.
void shape_checks(Unit& unit) {
  const auto& records = unit.records;
  std::vector<double> correlations;
  for (std::size_t m = 0; m + kLevels <= records.size(); m += kLevels) {
    std::vector<double> watts;
    std::vector<double> mbps;
    for (std::size_t l = 0; l < kLevels; ++l) {
      watts.push_back(records[m + l].avg_watts);
      mbps.push_back(records[m + l].mbps);
    }
    correlations.push_back(util::pearson_correlation(mbps, watts));
  }
  std::sort(correlations.begin(), correlations.end());
  const double median_corr =
      correlations.empty() ? 0.0 : correlations[correlations.size() / 2];
  unit.check("shape.power_tracks_mbps", median_corr > 0.9,
             util::format("median within-mode correlation %.3f", median_corr));

  const db::TestRecord* best_iops_w = nullptr;
  const db::TestRecord* worst_iops_w = nullptr;
  const db::TestRecord* best_mbps_kw = nullptr;
  for (const db::TestRecord& r : records) {
    if (r.load_proportion < 1.0) continue;
    if (!best_iops_w || r.iops_per_watt > best_iops_w->iops_per_watt) {
      best_iops_w = &r;
    }
    if (!worst_iops_w || r.iops_per_watt < worst_iops_w->iops_per_watt) {
      worst_iops_w = &r;
    }
    if (!best_mbps_kw || r.mbps_per_kilowatt > best_mbps_kw->mbps_per_kilowatt) {
      best_mbps_kw = &r;
    }
  }
  if (best_iops_w == nullptr) {
    unit.check("shape.extremes", false, "no full-load records");
    return;
  }
  unit.check("shape.best_iops_per_watt_small_sequential",
             best_iops_w->request_size <= 4 * kKiB &&
                 best_iops_w->random_ratio == 0.0,
             best_iops_w->trace_name);
  unit.check("shape.best_mbps_per_kw_large_sequential",
             best_mbps_kw->request_size >= 64 * kKiB &&
                 best_mbps_kw->random_ratio == 0.0,
             best_mbps_kw->trace_name);
  unit.check("shape.worst_iops_per_watt_1m", worst_iops_w->request_size == kMiB,
             worst_iops_w->trace_name);
}

/// Checks every unit shares: each test done with no late schedule, one
/// journal row per test, the record digest.
void common_checks(Unit& unit, const RunConfig& config) {
  for (std::size_t i = 0; i < unit.stats.size(); ++i) {
    if (!unit.stats[i].done || unit.stats[i].late != 0) unit.test_failed[i] = true;
  }
  std::uint64_t late = 0;
  for (const TestStat& s : unit.stats) late += s.late;
  unit.check("replay.late_schedules_zero", late == 0,
             util::format("%llu late schedules",
                          static_cast<unsigned long long>(late)));
  unit.check("journal.nothing_resumed", unit.resumed == 0,
             util::format("%llu resumed",
                          static_cast<unsigned long long>(unit.resumed)));
  RecordDigest digest;
  for (const db::TestRecord& r : unit.records) digest.add(r);
  unit.digest = digest.hex();
  if (!config.expect_digest.empty()) {
    unit.check("digest.pinned", unit.digest == config.expect_digest,
               unit.digest + " vs pinned " + config.expect_digest);
  }
}

core::EvaluationHost make_host(const RunConfig& config,
                              const std::filesystem::path& repository,
                              double window) {
  return core::EvaluationHost(storage::ArrayConfig::hdd_testbed(6), repository,
                              host_options(config, window));
}

/// One unit = one whole campaign on a fresh EvaluationHost over the
/// repository set-up filled (peak traces load from disk, as a re-run of
/// bench/campaign_1250 does), with a fresh journal.
Unit run_campaign_unit(const RunConfig& config,
                       const std::filesystem::path& repository,
                       const Grid& grid, const std::filesystem::path& journal) {
  core::EvaluationHost host = make_host(config, repository, kCampaignWindow);
  Unit unit;
  const std::size_t n = grid.tests.size();
  unit.stats.resize(n);
  unit.test_failed.assign(n, false);
  std::filesystem::remove(journal);

  core::CampaignOptions options;
  options.journal_path = journal;
  options.max_retries = 0;
  options.threads = config.threads;
  if (config.inject_fail > 0) {
    options.fail_test = [&grid, &config](const workload::WorkloadMode& mode,
                                         int) {
      return grid.index_of(mode) < config.inject_fail;
    };
  }
  core::CampaignRunner runner(
      [&](const workload::WorkloadMode& mode) {
        return timed_test(host, grid, unit, mode);
      },
      host.array_config().name, options);

  unit.before = obs::Registry::global().snapshot();
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  core::CampaignReport report;
  {
    TRACER_SPAN("campaign.run");
    report = runner.run(grid.tests);
  }
  unit.wall_s = now_s() - t0;
  unit.cpu_s = process_cpu_s() - cpu0;
  unit.peak_rss_mb = peak_rss_mb();
  unit.after = obs::Registry::global().snapshot();

  TRACER_SPAN("campaign.verify");
  unit.resumed = report.skipped();
  for (std::size_t i = 0; i < n; ++i) {
    if (report.outcomes[i].status != core::TestStatus::kCompleted) {
      unit.test_failed[i] = true;
    }
  }
  // Exactly one journal row per test, equal to the record the runner
  // returned (the journal's %.17g doubles are lossless).
  const std::vector<db::TestRecord> rows = db::CampaignJournal::load(journal);
  std::vector<int> seen(n, 0);
  std::size_t mismatched = 0;
  for (const db::TestRecord& row : rows) {
    const auto it = grid.index.find(
        db::CampaignJournal::key(row.trace_name, row.load_proportion));
    if (it == grid.index.end()) {
      ++mismatched;
      continue;
    }
    ++seen[it->second];
    if (!(row == report.outcomes[it->second].record)) ++mismatched;
  }
  const std::size_t missing =
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 0));
  const std::size_t doubled = static_cast<std::size_t>(std::count_if(
      seen.begin(), seen.end(), [](int c) { return c > 1; }));
  unit.check("journal.one_row_per_test",
             rows.size() == n && missing == 0 && doubled == 0 && mismatched == 0,
             util::format("%zu rows, %zu missing, %zu doubled, %zu differ",
                          rows.size(), missing, doubled, mismatched));
  unit.journal_bytes = file_bytes(journal);
  for (const core::TestOutcome& outcome : report.outcomes) {
    unit.records.push_back(outcome.record);
  }
  common_checks(unit, config);
  shape_checks(unit);
  unit.load_err_pct = load_error_pct(unit.records);
  // Checked: release the records so later units do not carry them.
  std::vector<db::TestRecord>().swap(unit.records);
  return unit;
}

Unit run_fleet_unit(const RunConfig& config,
                    const std::filesystem::path& repository,
                    const Grid& grid, const std::filesystem::path& journal,
                    const std::vector<db::TestRecord>& direct) {
  core::EvaluationHost host = make_host(config, repository, kFleetWindow);
  Unit unit;
  const std::size_t n = grid.tests.size();
  unit.stats.resize(n);
  unit.test_failed.assign(n, false);
  std::filesystem::remove(journal);
  std::filesystem::remove(journal.string() + ".campaign");

  const auto executor = [&](const workload::WorkloadMode& mode) {
    db::TestRecord record = timed_test(host, grid, unit, mode);
    // Injected failure: a wrong output, which the checks must catch.
    if (grid.index_of(mode) < config.inject_fail) record.iops += 1.0;
    return record;
  };
  const std::size_t workers = std::max<std::size_t>(1, config.threads - 1);
  std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
  std::vector<core::CampaignCoordinator::WorkerLink> links;
  std::vector<std::unique_ptr<core::CampaignWorkerService>> services;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    auto [coord_end, worker_end] = net::make_channel();
    coordinator_side.push_back(
        std::make_unique<net::Communicator>(std::move(coord_end)));
    links.push_back({util::format("w%zu", w), coordinator_side.back().get()});
    services.push_back(
        std::make_unique<core::CampaignWorkerService>(executor));
    auto comm = std::make_shared<net::Communicator>(std::move(worker_end));
    threads.emplace_back([service = services.back().get(), comm] {
      service->serve(*comm);
    });
  }

  core::FleetReport report;
  const auto join_workers = [&threads] {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  try {
    core::CampaignCoordinator coordinator(
        core::CampaignIdentity{"perfbench-fleet", 0}, journal, links);
    unit.before = obs::Registry::global().snapshot();
    reset_peak_rss();
    const double cpu0 = process_cpu_s();
    const double coord_cpu0 = thread_cpu_s();
    const double t0 = now_s();
    {
      TRACER_SPAN("fleet.coordinator_run");
      report = coordinator.run(grid.tests);
    }
    unit.wall_s = now_s() - t0;
    unit.coord_cpu_s = thread_cpu_s() - coord_cpu0;
    unit.cpu_s = process_cpu_s() - cpu0;
    unit.peak_rss_mb = peak_rss_mb();
    unit.after = obs::Registry::global().snapshot();
    TRACER_SPAN("fleet.stop_workers");
    coordinator.stop_workers();
    join_workers();
  } catch (...) {
    // Closing the coordinator's ends of the links makes every worker's
    // serve() return, so the threads can be joined before unwinding.
    coordinator_side.clear();
    join_workers();
    throw;
  }

  TRACER_SPAN("fleet.verify");
  unit.resumed = report.resumed;
  unit.leases_granted = report.leases_granted;
  unit.records_merged = report.merged;
  unit.check("fleet.complete", report.complete && report.merged == n,
             util::format("complete=%d merged=%zu", report.complete ? 1 : 0,
                          report.merged));
  // The merged journal must hold exactly one row per test index.
  std::vector<db::TestRecord> rows = db::CampaignJournal::load(journal);
  std::vector<int> seen(n, 0);
  unit.records.assign(n, db::TestRecord{});
  for (db::TestRecord& row : rows) {
    if (row.test_id >= n) continue;
    ++seen[row.test_id];
    unit.records[row.test_id] = std::move(row);
  }
  const std::size_t missing =
      static_cast<std::size_t>(std::count(seen.begin(), seen.end(), 0));
  const std::size_t doubled = static_cast<std::size_t>(std::count_if(
      seen.begin(), seen.end(), [](int c) { return c > 1; }));
  unit.check("journal.one_row_per_test",
             rows.size() == n && missing == 0 && doubled == 0,
             util::format("%zu rows, %zu missing, %zu doubled", rows.size(),
                          missing, doubled));
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] != 1) unit.test_failed[i] = true;
  }
  unit.journal_bytes = file_bytes(journal);

  // A sample of fleet records must equal the same tests run directly.
  std::size_t differ = 0;
  for (std::size_t i = 0; i < n; i += kFleetSampleStride) {
    db::TestRecord fleet_record = unit.records[i];
    db::TestRecord expected = direct[i / kFleetSampleStride];
    fleet_record.test_id = expected.test_id = 0;
    fleet_record.timestamp = expected.timestamp = "";
    if (!(fleet_record == expected)) {
      unit.test_failed[i] = true;
      ++differ;
    }
  }
  unit.check("fleet.sample_equals_direct", differ == 0,
             util::format("%zu of %zu sampled records differ", differ,
                          (n + kFleetSampleStride - 1) / kFleetSampleStride));
  common_checks(unit, config);
  unit.load_err_pct = load_error_pct(unit.records);
  // Checked: release the records so later units do not carry them.
  std::vector<db::TestRecord>().swap(unit.records);
  return unit;
}

std::string unit_json(const Unit& unit) {
  double busy = 0.0;
  double sim_s = 0.0;
  std::uint64_t events = 0, late = 0, packages = 0, bunches = 0;
  for (const TestStat& s : unit.stats) {
    busy += s.seconds;
    sim_s += s.sim_s;
    events += s.events;
    late += s.late;
    packages += s.packages;
    bunches += s.bunches;
  }
  const auto d = [&unit](const char* name) {
    return static_cast<double>(delta(unit.before, unit.after, name));
  };
  std::vector<double> test_ms;
  for (const TestStat& s : unit.stats) test_ms.push_back(s.seconds * 1e3);
  return Json()
      .integer("tests", unit.stats.size())
      .nums("test_ms", test_ms, 9)
      .integer("failed", unit.failed())
      .num("wall_s", unit.wall_s)
      .num("cpu_s", unit.cpu_s)
      .num("peak_rss_mb", unit.peak_rss_mb)
      .num("test_busy_s", busy)
      .num("sim_s", sim_s)
      .integer("events", events)
      .integer("late", late)
      .integer("packages", packages)
      .integer("bunches", bunches)
      .num("filter_s", d("host.phase.filter.us") / 1e6)
      .num("replay_s", d("host.phase.replay.us") / 1e6)
      .num("measure_s", d("host.phase.measure.us") / 1e6)
      .num("generate_s", d("host.phase.generate.us") / 1e6)
      .num("power_samples", d("power.samples"))
      .num("checkpoint_writes", d("campaign.checkpoint_writes"))
      .num("frames_sent", d("net.frames_sent"))
      .num("journal_bytes", unit.journal_bytes)
      .num("coord_cpu_s", unit.coord_cpu_s)
      .num("leases_granted", static_cast<double>(unit.leases_granted))
      .num("records_merged", static_cast<double>(unit.records_merged))
      .num("load_err_pct", unit.load_err_pct)
      .str("digest", unit.digest)
      .raw("checks", checks_json(unit.checks))
      .text();
}

/// Digest, events, packages and power samples of one unit: they must
/// repeat exactly in every unit of a run, since the simulation is
/// deterministic and a difference is a defect, not noise.
using ExactCounts =
    std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>;

ExactCounts exact_counts(const Unit& unit) {
  std::uint64_t events = 0, packages = 0;
  for (const TestStat& s : unit.stats) {
    events += s.events;
    packages += s.packages;
  }
  return {unit.digest, events, packages,
          delta(unit.before, unit.after, "power.samples")};
}

std::string run_grid(const RunConfig& config, bool fleet) {
  const Grid grid(storage::ArrayConfig::hdd_testbed(6).name);
  const double window = fleet ? kFleetWindow : kCampaignWindow;
  // Set-ups run untraced in every run mode. The first one fills the
  // repository every unit replays from.
  const auto repository = config.work_dir / "repository";
  Collected setup = collect_peaks(config, grid, window, repository);
  std::vector<double> setup_s{setup.seconds};
  std::vector<double> generate_s{setup.generate_s};
  while (setup_s.size() < kSetupReps) {
    const auto dir = config.work_dir / "repository-repeat";
    const Collected again = collect_peaks(config, grid, window, dir);
    setup_s.push_back(again.seconds);
    generate_s.push_back(again.generate_s);
    std::filesystem::remove_all(dir);
  }
  std::uint64_t requests = 0;
  for (const auto& mode : grid.modes) {
    requests += setup.host->peak_trace_shared(mode)->package_count();
  }
  std::uint64_t peak_bunches = 0;
  for (const auto& mode : grid.tests) {
    peak_bunches += setup.host->peak_trace_shared(mode)->bunch_count();
  }
  // Direct runs of the fleet's sampled tests, outside any timed phase.
  std::vector<db::TestRecord> direct;
  if (fleet) {
    for (std::size_t i = 0; i < grid.tests.size(); i += kFleetSampleStride) {
      direct.push_back(setup.host->run_test(grid.tests[i]).record);
    }
  }
  setup.host.reset();

  std::string phases;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Check> failed_checks;
  std::string digest;
  std::optional<ExactCounts> first;  ///< of the run's first unit
  for (const bool traced : {false, true}) {
    if (traced && !config.trace) break;
    set_tracing(traced);
    // Each unit is summarised as soon as it ends and then dropped, so the
    // benchmark's own memory stays flat however many units a phase runs.
    std::string units_json = "[";
    const double start = now_s();
    std::size_t u = 0;
    do {
      const auto journal =
          config.work_dir / util::format("journal-%s-%zu.csv",
                                         traced ? "traced" : "plain", u);
      Unit unit = fleet ? run_fleet_unit(config, repository, grid, journal, direct)
                        : run_campaign_unit(config, repository, grid, journal);
      std::filesystem::remove(journal);
      std::filesystem::remove(journal.string() + ".campaign");
      const auto exact = exact_counts(unit);
      if (!first) {
        first = exact;
        digest = unit.digest;
      }
      unit.check("determinism.same_as_first_unit", exact == *first,
                 unit.digest + " vs " + std::get<0>(*first));
      units_json += (u++ ? "," : "") + unit_json(unit);
      attempted += unit.stats.size();
      failed += unit.failed();
      for (const Check& c : unit.checks) {
        if (!c.ok) failed_checks.push_back(c);
      }
    } while (now_s() - start < phase_seconds(config));
    set_tracing(false);
    Json phase;
    phase.boolean("traced", traced).raw("units", units_json + "]");
    if (traced) {
      phase.raw("spans", span_totals_json());
    }
    phases += (phases.empty() ? "" : ",") + phase.text();
  }
  if (config.trace) write_spans(config.span_file);

  return Json()
      .str("workload", fleet ? "fleet" : "campaign")
      .integer("threads", config.threads)
      .integer("workers", fleet ? std::max<std::size_t>(1, config.threads - 1)
                                : config.threads)
      .num("collection_window_s", window)
      .nums("setup_s", setup_s)
      .nums("setup_generate_s", generate_s)
      .integer("requests_generated", requests)
      .integer("peak_bunches", peak_bunches)
      .raw("phases", "[" + phases + "]")
      .integer("attempted", attempted)
      .integer("failed", failed)
      .str("digest", digest)
      .raw("failed_checks", checks_json(failed_checks))
      .text();
}

}  // namespace

std::string run_campaign(const RunConfig& config) {
  return run_grid(config, false);
}

std::string run_fleet(const RunConfig& config) {
  return run_grid(config, true);
}

}  // namespace perfbench
