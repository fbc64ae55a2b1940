// Determinism suite for the flat replay kernel (DESIGN.md §6g).
//
// The contract under test: ReplayEngine::replay_flat produces metrics
// BIT-IDENTICAL to ReplayEngine::replay against a DiskArray built from the
// same config. These are EXPECT_EQ comparisons on doubles, deliberately:
// the flat kernel replicates the classic kernel's event schedule and
// floating-point expression shapes 1:1, so the results are the same bits,
// not merely close. (The suite keeps the ShardedReplay name it had when
// the kernel still partitioned its queue into shards.)
#include "core/replay_engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/flat_simulator.h"
#include "storage/disk_array.h"
#include "util/rng.h"

namespace tracer::core {
namespace {

/// Mixed workload with multi-package bunches and embedded sequential runs,
/// so one trace exercises admission batching, the controller's elevator
/// merge, RMW and full-stripe write paths, and both service models.
trace::Trace mixed_trace(std::size_t bunches, std::uint64_t seed,
                         double read_ratio = 0.5, Seconds gap = 0.002) {
  util::Rng rng(seed);
  trace::Trace trace;
  trace.device = "dev";
  Sector seq_cursor = 4096;
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * gap;
    const std::size_t packages = 1 + rng.below(4);
    for (std::size_t p = 0; p < packages; ++p) {
      trace::IoPackage pkg;
      if (rng.chance(0.4)) {
        // Contiguous run fragment: consecutive packages coalesce in the
        // controller's dispatch window.
        pkg.sector = seq_cursor;
        pkg.bytes = 64 * kKiB;
        seq_cursor += pkg.bytes / kSectorSize;
      } else {
        pkg.sector = rng.below(1ULL << 28) * 8;
        pkg.bytes = (1 + rng.below(32)) * 4096;
      }
      pkg.op = rng.chance(read_ratio) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

ReplayReport replay_classic(const trace::Trace& trace,
                            const storage::ArrayConfig& config,
                            const ReplayOptions& options = {},
                            int failed_disk = -1) {
  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(), config);
  if (failed_disk >= 0) {
    array.controller().fail_disk(static_cast<std::size_t>(failed_disk));
  }
  return engine.replay(trace, array);
}

ReplayReport replay_flat(const trace::Trace& trace,
                         const storage::ArrayConfig& config,
                         const ReplayOptions& options = {},
                         int failed_disk = -1) {
  ReplayEngine engine(options);
  return engine.replay_flat(trace, config, failed_disk);
}

/// Every metric the report carries, compared for exact equality.
void expect_identical(const ReplayReport& a, const ReplayReport& b) {
  EXPECT_EQ(a.perf.completions, b.perf.completions);
  EXPECT_EQ(a.perf.bytes, b.perf.bytes);
  EXPECT_EQ(a.perf.duration, b.perf.duration);
  EXPECT_EQ(a.perf.iops, b.perf.iops);
  EXPECT_EQ(a.perf.mbps, b.perf.mbps);
  EXPECT_EQ(a.perf.avg_response_ms, b.perf.avg_response_ms);
  EXPECT_EQ(a.perf.p95_response_ms, b.perf.p95_response_ms);
  EXPECT_EQ(a.perf.max_response_ms, b.perf.max_response_ms);
  EXPECT_EQ(a.perf.iops_series, b.perf.iops_series);
  EXPECT_EQ(a.perf.mbps_series, b.perf.mbps_series);
  EXPECT_EQ(a.avg_watts, b.avg_watts);
  EXPECT_EQ(a.avg_true_watts, b.avg_true_watts);
  EXPECT_EQ(a.avg_volts, b.avg_volts);
  EXPECT_EQ(a.avg_amps, b.avg_amps);
  EXPECT_EQ(a.joules, b.joules);
  EXPECT_EQ(a.efficiency.iops_per_watt, b.efficiency.iops_per_watt);
  EXPECT_EQ(a.efficiency.mbps_per_kilowatt, b.efficiency.mbps_per_kilowatt);
  EXPECT_EQ(a.replay_duration, b.replay_duration);
  EXPECT_EQ(a.bunches_replayed, b.bunches_replayed);
  EXPECT_EQ(a.packages_replayed, b.packages_replayed);
  EXPECT_EQ(a.warmup_bunches, b.warmup_bunches);
  EXPECT_EQ(a.warmup_packages, b.warmup_packages);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.late_schedules, b.late_schedules);
  ASSERT_EQ(a.power_series.size(), b.power_series.size());
  for (std::size_t i = 0; i < a.power_series.size(); ++i) {
    EXPECT_EQ(a.power_series[i].time, b.power_series[i].time);
    EXPECT_EQ(a.power_series[i].volts, b.power_series[i].volts);
    EXPECT_EQ(a.power_series[i].amps, b.power_series[i].amps);
    EXPECT_EQ(a.power_series[i].watts, b.power_series[i].watts);
    EXPECT_EQ(a.power_series[i].true_watts, b.power_series[i].true_watts);
  }
}

TEST(ShardedReplay, BitIdenticalToClassicOnHddArray) {
  const trace::Trace trace = mixed_trace(400, 11);
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  const ReplayReport classic = replay_classic(trace, config);
  EXPECT_GT(classic.perf.completions, 0u);
  expect_identical(classic, replay_flat(trace, config));
}

TEST(ShardedReplay, BitIdenticalToClassicOnSsdArray) {
  const trace::Trace trace = mixed_trace(400, 12);
  const auto config = storage::ArrayConfig::ssd_testbed(4);
  const ReplayReport classic = replay_classic(trace, config);
  EXPECT_GT(classic.perf.completions, 0u);
  expect_identical(classic, replay_flat(trace, config));
}

TEST(ShardedReplay, GoldenCacheDisabledMetricsUnchanged) {
  // Golden anchor for the cache-disabled default path: these literals were
  // produced by the kernels BEFORE CacheTier/warm-up landed and must never
  // move while cache.enabled is false and warmup_window is 0 — new options
  // have to be invisible when off. Bits, not tolerances.
  const trace::Trace trace = mixed_trace(200, 101);
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  const ReplayReport classic = replay_classic(trace, config);
  const ReplayReport flat = replay_flat(trace, config);
  expect_identical(classic, flat);
  EXPECT_EQ(classic.perf.completions, 499u);
  EXPECT_EQ(classic.joules, 272.04127048099122);
  EXPECT_EQ(classic.avg_watts, 90.740000000000009);
  EXPECT_EQ(classic.perf.avg_response_ms, 1122.5210565959744);
  EXPECT_EQ(classic.perf.iops, 499.0);
  EXPECT_EQ(classic.replay_duration, 3.0);
  EXPECT_EQ(classic.warmup_bunches, 0u);
  EXPECT_EQ(classic.warmup_packages, 0u);
}

TEST(ShardedReplay, DegradedRaid5RebuildPathIsIdentical) {
  // Degraded-mode replay: reconstructed reads fan out to n-1 members,
  // writes take the reconstruct/parity-failed paths. Read-heavy and
  // write-heavy mixes both compared.
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  for (const double read_ratio : {0.9, 0.1}) {
    const trace::Trace trace = mixed_trace(250, 17, read_ratio);
    const ReplayReport classic = replay_classic(trace, config, {}, 2);
    expect_identical(classic, replay_flat(trace, config, {}, 2));
  }
}

TEST(ShardedReplay, Raid0DemotionAndSmallArrays) {
  // disk_count < 3 demotes to RAID0 in DiskArray; the flat kernel must
  // mirror that.
  const trace::Trace trace = mixed_trace(200, 19);
  auto config = storage::ArrayConfig::hdd_testbed(2);
  const ReplayReport classic = replay_classic(trace, config);
  expect_identical(classic, replay_flat(trace, config));
}

// ---------------------------------------------------------------------------
// OpLog block boundaries: each member's op log spans many 256-op blocks and
// ends mid-block, so block allocation, the freeing of completed blocks and
// the partial tail block are all on the compared path. The classic
// kernel's per-disk request counts equal the flat lanes' op counts (one
// child op per member request).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kOpLogBlock = 256;

void expect_many_blocks_per_lane(const std::vector<std::uint64_t>& ops) {
  for (std::size_t d = 0; d < ops.size(); ++d) {
    SCOPED_TRACE(d);
    EXPECT_GT(ops[d], 7 * kOpLogBlock);    // spans at least 8 blocks
    EXPECT_NE(ops[d] % kOpLogBlock, 0u);   // ends inside a partial block
  }
}

TEST(ShardedReplay, SsdOpLogsSpanManyBlocks) {
  // SSD members serve several requests at once across channels, so
  // completions (and block frees) arrive out of order.
  const trace::Trace trace = mixed_trace(1500, 53);
  const auto config = storage::ArrayConfig::ssd_testbed(4);
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(), config);
  const ReplayReport classic = engine.replay(trace, array);
  std::vector<std::uint64_t> ops;
  for (std::size_t d = 0; d < array.disk_count(); ++d) {
    ops.push_back(
        dynamic_cast<storage::SsdModel&>(array.disk(d)).completed_requests());
  }
  expect_many_blocks_per_lane(ops);
  expect_identical(classic, replay_flat(trace, config));
}

TEST(ShardedReplay, DegradedRaid5OpLogsSpanManyBlocks) {
  // Degraded RAID-5 appends each row's deferred parity writes only after
  // its reads complete, interleaved with later transactions' ops.
  constexpr int kFailed = 2;
  const trace::Trace trace = mixed_trace(1200, 59, 0.3, 0.01);
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(), config);
  array.controller().fail_disk(kFailed);
  const ReplayReport classic = engine.replay(trace, array);
  std::vector<std::uint64_t> ops;
  const auto hdds = array.hdd_disks();
  for (std::size_t d = 0; d < hdds.size(); ++d) {
    if (d == kFailed) {
      EXPECT_EQ(hdds[d]->completed_requests(), 0u);
      continue;
    }
    ops.push_back(hdds[d]->completed_requests());
  }
  expect_many_blocks_per_lane(ops);
  expect_identical(classic, replay_flat(trace, config, {}, kFailed));
}

TEST(ShardedReplay, OptionVariantsStayIdentical) {
  const trace::Trace trace = mixed_trace(300, 23);
  const auto config = storage::ArrayConfig::hdd_testbed(6);

  ReplayOptions scaled;
  scaled.time_scale = 2.0;
  scaled.max_duration = 0.2;
  expect_identical(replay_classic(trace, config, scaled),
                   replay_flat(trace, config, scaled));

  ReplayOptions unwrapped;
  unwrapped.wrap_addresses = true;
  unwrapped.sampling_cycle = 0.05;
  expect_identical(replay_classic(trace, config, unwrapped),
                   replay_flat(trace, config, unwrapped));
}

TEST(ShardedReplay, WarmupWindowStaysIdentical) {
  // Warm-up classification happens per submit in both kernels; the boundary
  // event, sampler phase, and measured-window arithmetic must line up so
  // the reports stay the same bits.
  const trace::Trace trace = mixed_trace(400, 31);
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  ReplayOptions options;
  options.warmup_window = 0.25;
  const ReplayReport classic = replay_classic(trace, config, options);
  EXPECT_GT(classic.warmup_bunches, 0u);
  EXPECT_GT(classic.perf.completions, 0u);
  expect_identical(classic, replay_flat(trace, config, options));
}

TEST(ShardedReplay, CacheEnabledConfigMatchesExplicitWrap) {
  // A cache-enabled config routes replay_flat through the classic kernel
  // with a CacheTier wrapped around the array; the result must equal a
  // caller-built wrap, bit for bit, and actually exercise the cache.
  const trace::Trace trace = mixed_trace(300, 37, 0.7);
  auto config = storage::ArrayConfig::hdd_testbed(6);
  config.cache.enabled = true;
  config.cache.capacity = 2 * kMiB;  // 32 lines: forces evictions + flushes
  config.cache.tier_enabled = true;
  config.cache.tier_capacity = 1 * kMiB;

  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(), config);
  storage::CacheTier cache(engine.simulator(), config.cache, array);
  const ReplayReport classic = engine.replay(trace, cache);
  EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);

  expect_identical(classic, replay_flat(trace, config));
}

TEST(ShardedReplay, CacheEnabledWarmupStaysIdentical) {
  // Warm-up plus cache is the 2DIO scenario the option exists for: the
  // prefix populates the cache, measurement starts warm. Both entry points
  // must agree bit for bit.
  const trace::Trace trace = mixed_trace(300, 41, 0.8);
  auto config = storage::ArrayConfig::hdd_testbed(6);
  config.cache.enabled = true;
  config.cache.capacity = 4 * kMiB;
  ReplayOptions options;
  options.warmup_window = 0.2;

  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(), config);
  storage::CacheTier cache(engine.simulator(), config.cache, array);
  const ReplayReport classic = engine.replay(trace, cache);
  EXPECT_GT(classic.warmup_packages, 0u);

  expect_identical(classic, replay_flat(trace, config, options));
}

TEST(ShardedReplay, CycleSnapshotsMatchClassic) {
  const trace::Trace trace = mixed_trace(200, 29);
  const auto config = storage::ArrayConfig::ssd_testbed(4);

  auto run = [&](auto&& replayer) {
    std::vector<CycleSnapshot> cycles;
    ReplayOptions options;
    options.sampling_cycle = 0.1;
    options.on_cycle = [&cycles](const CycleSnapshot& s) {
      cycles.push_back(s);
    };
    replayer(options);
    return cycles;
  };
  const auto classic = run([&](const ReplayOptions& options) {
    replay_classic(trace, config, options);
  });
  const auto flat = run([&](const ReplayOptions& options) {
    replay_flat(trace, config, options);
  });
  ASSERT_EQ(classic.size(), flat.size());
  ASSERT_GT(classic.size(), 1u);
  for (std::size_t i = 0; i < classic.size(); ++i) {
    EXPECT_EQ(classic[i].time, flat[i].time);
    EXPECT_EQ(classic[i].iops, flat[i].iops);
    EXPECT_EQ(classic[i].mbps, flat[i].mbps);
    EXPECT_EQ(classic[i].watts, flat[i].watts);
    EXPECT_EQ(classic[i].completions, flat[i].completions);
    EXPECT_EQ(classic[i].in_flight, flat[i].in_flight);
  }
}

TEST(ShardedReplay, LookDisciplineFallsBackAndStaysIdentical) {
  // LOOK service order depends on queue-inspection timing, so the flat
  // kernel routes it through the classic path — results still identical.
  const trace::Trace trace = mixed_trace(150, 31);
  auto config = storage::ArrayConfig::hdd_testbed(6);
  config.hdd.discipline = storage::HddParams::Discipline::kLook;
  const ReplayReport classic = replay_classic(trace, config);
  expect_identical(classic, replay_flat(trace, config));
}

TEST(ShardedReplay, RejectsBadInput) {
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  ReplayEngine engine;
  EXPECT_THROW(engine.replay_flat(trace::Trace{}, config),
               std::invalid_argument);
  const trace::Trace trace = mixed_trace(5, 37);
  EXPECT_THROW(engine.replay_flat(trace, config, /*failed_disk=*/6),
               std::out_of_range);
  auto raid0 = storage::ArrayConfig::hdd_testbed(2);  // demotes to RAID0
  EXPECT_THROW(engine.replay_flat(trace, raid0, /*failed_disk=*/0),
               std::logic_error);
}

TEST(ShardedReplay, NoLateSchedulesOnWellFormedTrace) {
  const trace::Trace trace = mixed_trace(200, 41);
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  const ReplayReport report = replay_flat(trace, config);
  EXPECT_EQ(report.late_schedules, 0u);
  EXPECT_GT(report.events_dispatched, trace.bunches.size());
}

// ---------------------------------------------------------------------------
// Capacity stability: steady-state replay must not grow the event queues
// (the reserve() estimate covers the device's worst case).
// ---------------------------------------------------------------------------

TEST(ShardedReplay, ClassicKernelCapacityStableAcrossReplay) {
  const trace::Trace trace = mixed_trace(300, 43);
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  engine.replay(trace, array);
  const std::size_t heap_after_first = engine.simulator().heap_capacity();
  const std::size_t slots_after_first = engine.simulator().slot_capacity();
  engine.replay(trace, array);
  EXPECT_EQ(engine.simulator().heap_capacity(), heap_after_first);
  EXPECT_EQ(engine.simulator().slot_capacity(), slots_after_first);
}

TEST(ShardedReplay, ShardedSimulatorCapacityStable) {
  // Reserve covers the worst case, so a burst of schedules at the reserved
  // level never reallocates.
  sim::FlatSimulator sim;
  sim.reserve(64);
  const std::size_t cap = sim.capacity();
  EXPECT_GE(cap, 64u);
  for (int round = 0; round < 3; ++round) {
    const Seconds base = static_cast<double>(round);
    for (std::uint32_t i = 0; i < 64; ++i) {
      sim.schedule(base + 0.001 * (i % 16 + 1), 0, i, round);
    }
    sim::FlatEvent ev;
    std::uint64_t last_seq = 0;
    Seconds last_time = -1.0;
    while (sim.pop(ev)) {
      EXPECT_GE(ev.time, last_time);  // (time, seq) order
      if (ev.time == last_time) {
        EXPECT_GT(ev.seq, last_seq);
      }
      last_time = ev.time;
      last_seq = ev.seq;
    }
  }
  EXPECT_EQ(sim.capacity(), cap);
  EXPECT_EQ(sim.late_schedule_count(), 0u);
}

}  // namespace
}  // namespace tracer::core
