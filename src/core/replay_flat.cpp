// Flat replay kernel (DESIGN.md §6g) — the single-queue replay data path
// behind ReplayEngine::replay_flat.
//
// The classic kernel replays through the device-model object graph:
// closures in the simulator slab, shared_ptr transactions in the RAID
// controller, per-request service-time math at service start. This file
// replaces that data path for the common replay shape (DiskArray of FIFO
// HDDs or SSDs) with
//
//   * sim::FlatSimulator — one binary heap of 24-byte POD events, no
//     closures, no slab, a switch in the run loop;
//   * a flat transaction slab + per-disk append-only operation logs —
//     steady state allocates nothing;
//   * batched SoA planning: child operations are appended to per-disk logs
//     and their service plans (seek/rotation/transfer or channel latency)
//     are computed in blocks by the mech_batch planners when the first op
//     of a block enters service.
//
// The RAID-5 write plan (storage::plan_raid5_write) and the service power
// pulses (storage::hdd_add_service_pulses / ssd_add_service_pulse) are the
// same functions RaidController, HddModel and SsdModel call.
//
// Determinism contract: every schedule() here corresponds 1:1, in program
// order, to a schedule_at() the classic kernel would perform for the same
// trace and config — same times, same sequence numbers, same per-disk RNG
// consumption order, same floating-point expression shapes — so the
// metrics are bit-identical to ReplayEngine::replay against a DiskArray
// (tests/test_flat_replay.cpp asserts EXPECT_EQ on the doubles).
//
// Plan-ahead correctness: with FIFO service, a request's *duration*
// depends only on its position in the per-disk request order (head
// position, sequential detection, RNG draws), never on when service
// starts. So plans are computed in append order, possibly before the
// service-start event that consumes them.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/replay_engine.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "power/power_analyzer.h"
#include "sim/flat_simulator.h"
#include "storage/disk_array.h"
#include "storage/mech_batch.h"
#include "util/rng.h"

namespace tracer::core {

namespace {

using storage::ArrayConfig;

// Event kinds interpreted by the run loop. `a` carries the disk index for
// completions; `b` carries the bunch index / operation-log slot / txn slot.
enum : std::uint32_t {
  kEvBunch = 0,       // admit bunch b's packages, schedule bunch b+1
  kEvSampler = 1,     // power/perf sampling-cycle boundary
  kEvDispatch = 2,    // controller dispatch window closed: merge + execute
  kEvDegenerate = 3,  // degraded-corner txn with nothing physical to do
  kEvHddDone = 4,     // HDD disk a finished op b
  kEvSsdDone = 5,     // SSD disk a finished op b
  kEvStartMeasure = 6,  // warm-up boundary: open the analyzer window
};

/// One child operation in a per-disk log. The identity fields are written
/// at append time, the plan doubles by the lane's batch planner.
/// `used_channels` is set at append time too: the SSD head-of-line check
/// reads it before the plan exists (it depends only on `bytes`).
struct ChildOp {
  Sector sector = 0;
  std::uint32_t bytes = 0;
  std::uint32_t txn = 0;            ///< owning transaction slot
  std::uint32_t row = 0;            ///< txn row phase (row_read ops only)
  std::uint8_t write = 0;
  std::uint8_t row_read = 0;        ///< completion triggers deferred writes
  std::uint16_t reserved = 0;
  std::uint32_t used_channels = 0;  ///< SSD fan-out
  // ---- plan fields (valid once Lane::planned covers this op) ----
  double seek = 0.0;
  double rotation = 0.0;
  double transfer = 0.0;
  double service = 0.0;
};
static_assert(sizeof(ChildOp) == 64, "ChildOp should stay one cache line");

/// Append-only per-disk operation log in fixed-size blocks. Blocks never
/// move once allocated (only the pointer table grows), so a ChildOp
/// reference stays valid across appends; fully-completed blocks are freed
/// to bound memory on long replays.
///
/// A block is 256 ops = 16 KiB, the plan-block size. Small blocks keep a
/// short replay's cost proportional to the ops it actually logs (a block
/// is value-initialised when allocated), and 16 KiB sits below glibc's
/// mmap and trim thresholds, so freed blocks are recycled from the heap
/// instead of going back to the OS and being page-faulted in again by the
/// next replay.
class OpLog {
 public:
  static constexpr std::uint64_t kBlockShift = 8;
  static constexpr std::uint64_t kBlockSize = 1ULL << kBlockShift;
  static constexpr std::uint64_t kBlockMask = kBlockSize - 1;

  ChildOp& append() {
    const std::uint64_t idx = size_;
    const std::size_t b = static_cast<std::size_t>(idx >> kBlockShift);
    if ((idx & kBlockMask) == 0) {
      blocks_.push_back(std::make_unique<ChildOp[]>(kBlockSize));
      completed_in_block_.push_back(0);
    }
    ++size_;
    return blocks_[b][idx & kBlockMask];
  }

  ChildOp& at(std::uint64_t idx) {
    return blocks_[static_cast<std::size_t>(idx >> kBlockShift)]
                  [idx & kBlockMask];
  }

  std::uint64_t size() const { return size_; }

  /// Every op of a block completes before any later op is planned, so a
  /// full block can never be touched again.
  void mark_completed(std::uint64_t idx) {
    const std::size_t b = static_cast<std::size_t>(idx >> kBlockShift);
    if (++completed_in_block_[b] == kBlockSize) blocks_[b].reset();
  }

 private:
  std::uint64_t size_ = 0;
  std::vector<std::unique_ptr<ChildOp[]>> blocks_;
  std::vector<std::uint32_t> completed_in_block_;
};

/// Per-member-disk state: the flat equivalent of one HddModel/SsdModel plus
/// its queue.
struct Lane {
  explicit Lane(Watts idle_watts) : timeline(idle_watts) {}

  std::uint64_t head = 0;     ///< next op to enter service
  std::uint64_t planned = 0;  ///< ops whose plan fields are filled
  bool busy = false;          ///< HDD: actuator in service
  std::size_t busy_channels = 0;  ///< SSD: channels in service
  power::PowerTimeline timeline;
  OpLog log;
  storage::HddMechState hmech;
  storage::SsdMechState smech;
  util::Rng rng{0};
  std::uint64_t plan_batches = 0;
  std::uint64_t planned_ops = 0;
  std::uint64_t sequential_hits = 0;
};

/// Ops planned per mech_batch call.
constexpr std::size_t kPlanBlock = 256;

/// SoA staging buffers for the batch planners.
struct PlanScratch {
  std::vector<Sector> sectors = std::vector<Sector>(kPlanBlock);
  std::vector<Bytes> bytes = std::vector<Bytes>(kPlanBlock);
  std::vector<std::uint8_t> ops = std::vector<std::uint8_t>(kPlanBlock);
  std::vector<storage::HddServicePlan> hplans =
      std::vector<storage::HddServicePlan>(kPlanBlock);
  std::vector<storage::SsdServicePlan> splans =
      std::vector<storage::SsdServicePlan>(kPlanBlock);
};

/// The array as one analyzer channel, replicating DiskArray::power_at /
/// energy_until exactly: enclosure first, then member disks in index
/// order, PSU overhead applied to the sum (same FP evaluation order).
class FlatArrayPower final : public power::PowerSource {
 public:
  FlatArrayPower(const ArrayConfig& config, power::PowerTimeline& enclosure,
                 std::vector<Lane>& lanes)
      : config_(config), enclosure_(enclosure), lanes_(lanes) {}

  std::string name() const override { return config_.name; }

  Watts power_at(Seconds t) const override {
    Watts total = enclosure_.power_at(t);
    for (const auto& lane : lanes_) total += lane.timeline.power_at(t);
    return total * (1.0 + config_.psu_overhead_fraction);
  }

  Joules energy_until(Seconds t) override {
    Joules total = enclosure_.energy_until(t);
    for (auto& lane : lanes_) total += lane.timeline.energy_until(t);
    return total * (1.0 + config_.psu_overhead_fraction);
  }

 private:
  const ArrayConfig& config_;
  power::PowerTimeline& enclosure_;
  std::vector<Lane>& lanes_;
};

}  // namespace

/// The kernel proper. Friend of ReplayEngine: it drives the engine's
/// monitor and replay counters so assemble_report works unchanged.
class FlatReplayKernel {
 public:
  FlatReplayKernel(ReplayEngine& engine, const trace::TraceSource& source,
                   const ArrayConfig& config, int failed_disk)
      : engine_(engine),
        source_(source),
        config_(config),
        level_(config.disk_count >= 3 ? config.level
                                      : storage::RaidLevel::kRaid0),
        geometry_(level_, config.disk_count, config.stripe_unit,
                  config.kind == storage::DiskKind::kHdd
                      ? config.hdd.capacity
                      : config.ssd.capacity),
        hdd_(config.kind == storage::DiskKind::kHdd),
        enclosure_(config.enclosure_base_watts),
        power_(config, enclosure_, lanes_) {
    // Mirror the model constructors' validation.
    if (hdd_ && (config.hdd.cylinders == 0 || config.hdd.capacity == 0)) {
      throw std::invalid_argument(
          "HddModel: capacity and cylinders must be > 0");
    }
    if (!hdd_ && (config.ssd.channels == 0 || config.ssd.capacity == 0 ||
                  config.ssd.internal_stripe == 0)) {
      throw std::invalid_argument(
          "SsdModel: capacity, channels and stripe must be > 0");
    }
    if (failed_disk >= 0) {
      if (level_ != storage::RaidLevel::kRaid5) {
        throw std::logic_error("fail_disk: degraded mode needs RAID-5");
      }
      if (static_cast<std::size_t>(failed_disk) >= config.disk_count) {
        throw std::out_of_range("fail_disk: no such member");
      }
      failed_disk_ = failed_disk;
    }
    if (hdd_) hdd_geom_ = storage::derive_hdd_geometry(config.hdd);
    max_merge_bytes_ = geometry_.stripe_unit * geometry_.data_disks();
    ssd_channels_ = config.ssd.channels;

    // Member seeds come from the same seeder stream as DiskArray's ctor.
    util::Rng seeder(config.seed);
    lanes_.reserve(config.disk_count);
    const Watts idle =
        hdd_ ? config.hdd.idle_watts : config.ssd.idle_watts;
    for (std::size_t d = 0; d < config.disk_count; ++d) {
      lanes_.emplace_back(idle);
      lanes_.back().rng = util::Rng(seeder.next());
    }
    extents_.reserve(16);
    scratch_batch_.reserve(64);
    batch_.reserve(64);
  }

  ReplayReport run() {
    TRACER_SPAN("replay.flat.run");
    engine_.monitor_.reset();
    engine_.packages_in_flight_ = 0;
    engine_.packages_submitted_ = 0;
    engine_.bunches_submitted_ = 0;
    engine_.warmup_packages_ = 0;
    engine_.warmup_bunches_ = 0;
    engine_.max_in_flight_ = 0;
    engine_.trace_exhausted_ = false;

    // Same warm-up validation and boundary arithmetic as the classic
    // kernel (replay_engine.cpp), so the two kernels throw and measure
    // identically.
    Seconds effective_window =
        source_.duration() / engine_.options_.time_scale;
    if (engine_.options_.max_duration > 0.0) {
      effective_window =
          std::min(effective_window, engine_.options_.max_duration);
    }
    if (engine_.options_.warmup_window > 0.0 &&
        engine_.options_.warmup_window >= effective_window) {
      throw std::invalid_argument(
          "ReplayEngine: warmup_window must be shorter than the replayed "
          "window");
    }
    warm_end_ = sim_.now() + engine_.options_.warmup_window;

    power::PowerAnalyzer analyzer(engine_.options_.sampling_cycle,
                                  engine_.options_.sensor,
                                  engine_.options_.sensor_seed);
    analyzer.add_channel(power_);
    analyzer_ = &analyzer;

    // Same sequence-number assignment order as the classic kernel. Without
    // warm-up: the sampler's first tick takes seq 0, bunch 0 takes seq 1.
    // With warm-up the classic kernel schedules the analyzer-start event
    // first, so here kEvStartMeasure takes seq 0.
    if (engine_.options_.warmup_window > 0.0) {
      sim_.schedule(warm_end_, kEvStartMeasure);
    } else {
      analyzer.start(sim_.now());
    }
    sim_.schedule(warm_end_ + engine_.options_.sampling_cycle, kEvSampler);
    const std::size_t per_disk =
        hdd_ ? 2 : config_.ssd.channels + 1;
    sim_.reserve(8 + config_.disk_count * per_disk);
    schedule_bunch(0);

    sim::FlatEvent ev;
    while (sim_.pop(ev)) {
      switch (ev.kind) {
        case kEvBunch:
          on_bunch(static_cast<std::size_t>(ev.b));
          break;
        case kEvSampler:
          on_sampler(ev.time);
          break;
        case kEvDispatch:
          on_dispatch();
          break;
        case kEvDegenerate:
          child_done(static_cast<std::uint32_t>(ev.b));
          break;
        case kEvHddDone:
          on_hdd_done(ev.a, ev.b);
          break;
        case kEvSsdDone:
          on_ssd_done(ev.a, ev.b);
          break;
        case kEvStartMeasure:
          analyzer_->start(ev.time);
          break;
        default:
          throw std::logic_error("replay_flat: unknown event kind");
      }
    }

    const Seconds end = sim_.now();
    analyzer.sample_at(end);
    analyzer_ = nullptr;

    ReplayReport report = engine_.assemble_report(source_, analyzer, end, 0);
    report.events_dispatched = sim_.events_dispatched();
    report.late_schedules = sim_.late_schedule_count();
    publish_obs();
    return report;
  }

 private:
  // ---------------------------------------------------------------------
  // Admission (ReplayEngine::schedule_bunch / issue, flattened)
  // ---------------------------------------------------------------------

  void schedule_bunch(std::size_t index) {
    if (index >= source_.bunch_count()) {
      engine_.trace_exhausted_ = true;
      return;
    }
    const Seconds at =
        source_.timestamp(index) / engine_.options_.time_scale;
    if (engine_.options_.max_duration > 0.0 &&
        at > engine_.options_.max_duration) {
      engine_.trace_exhausted_ = true;
      return;
    }
    sim_.schedule(at, kEvBunch, 0, index);
  }

  void on_bunch(std::size_t index) {
    // Same submit-time warm-up classification as the classic kernel's
    // schedule_bunch.
    const bool measured = !(sim_.now() < warm_end_);
    if (measured) {
      ++engine_.bunches_submitted_;
    } else {
      ++engine_.warmup_bunches_;
    }
    for (const auto& pkg : source_.packages(index)) {
      const std::uint64_t id = engine_.next_id_++;
      const Sector sector =
          engine_.options_.wrap_addresses
              ? wrap_sector(pkg.sector, pkg.bytes, geometry_.capacity())
              : pkg.sector;
      ++engine_.packages_in_flight_;
      if (measured) {
        ++engine_.packages_submitted_;
      } else {
        ++engine_.warmup_packages_;
      }
      engine_.max_in_flight_ =
          std::max(engine_.max_in_flight_, engine_.packages_in_flight_);
      controller_submit(id, sector, pkg.bytes, pkg.op);
    }
    schedule_bunch(index + 1);
  }

  void on_sampler(Seconds at) {
    analyzer_->sample_at(at);
    if (engine_.options_.on_cycle) {
      const auto& samples = analyzer_->report(0).samples;
      CycleSnapshot snapshot;
      snapshot.time = at;
      snapshot.completions = engine_.monitor_.completions();
      snapshot.in_flight = engine_.packages_in_flight_;
      snapshot.iops =
          static_cast<double>(snapshot.completions - last_completions_) /
          engine_.options_.sampling_cycle;
      snapshot.mbps =
          static_cast<double>(engine_.monitor_.bytes() - last_bytes_) /
          engine_.options_.sampling_cycle / 1.0e6;
      snapshot.watts = samples.empty() ? 0.0 : samples.back().watts;
      last_completions_ = snapshot.completions;
      last_bytes_ = engine_.monitor_.bytes();
      engine_.options_.on_cycle(snapshot);
    }
    if (!engine_.trace_exhausted_ || engine_.packages_in_flight_ > 0) {
      sim_.schedule(at + engine_.options_.sampling_cycle, kEvSampler);
    }
  }

  // ---------------------------------------------------------------------
  // Controller (RaidController, flattened: no callbacks, no shared_ptr)
  // ---------------------------------------------------------------------

  struct Waiting {
    std::uint64_t id = 0;
    Sector sector = 0;
    Bytes bytes = 0;
    OpType op = OpType::kRead;
    Seconds submit_time = 0.0;

    Sector end_sector() const {
      return sector + (bytes + kSectorSize - 1) / kSectorSize;
    }
  };

  struct Member {
    std::uint64_t id = 0;
    Seconds submit_time = 0.0;
    Bytes bytes = 0;
    OpType op = OpType::kRead;
  };

  struct Deferred {
    std::uint32_t disk = 0;
    Sector sector = 0;
    std::uint32_t bytes = 0;
  };

  struct RowPhase {
    std::uint32_t reads_pending = 0;
    std::vector<Deferred> writes;
  };

  struct FlatTxn {
    std::size_t pending = 0;
    std::uint32_t rows_used = 0;
    std::vector<Member> members;
    std::vector<RowPhase> rows;  ///< first rows_used entries are live
  };

  bool disk_failed(std::size_t disk) const {
    return failed_disk_ == static_cast<std::ptrdiff_t>(disk);
  }

  void controller_submit(std::uint64_t id, Sector sector, Bytes bytes,
                         OpType op) {
    if (bytes == 0) {
      throw std::invalid_argument("RaidController: zero-byte request");
    }
    if (sector * kSectorSize + bytes > geometry_.capacity()) {
      throw std::out_of_range("RaidController: request beyond capacity");
    }
    batch_.push_back(Waiting{id, sector, bytes, op, sim_.now()});
    if (!dispatch_scheduled_) {
      dispatch_scheduled_ = true;
      sim_.schedule(sim_.now() + config_.controller_overhead, kEvDispatch);
    }
  }

  void on_dispatch() {
    dispatch_scheduled_ = false;
    scratch_batch_.clear();
    scratch_batch_.swap(batch_);
    if (scratch_batch_.empty()) return;
    if (scratch_batch_.size() == 1) {
      execute(0, 1);
      return;
    }
    // Elevator merge, exactly as RaidController::dispatch_batch: stable
    // sort by (op, sector), coalesce contiguous same-direction runs capped
    // at one stripe width. Insertion sort instead of std::stable_sort: a
    // dispatch batch is a handful of requests and std::stable_sort heap-
    // allocates a temporary buffer per call; insertion sort is stable by
    // construction (elements move only past strictly-greater predecessors),
    // so the run boundaries are identical.
    for (std::size_t i = 1; i < scratch_batch_.size(); ++i) {
      const Waiting w = scratch_batch_[i];
      std::size_t j = i;
      while (j > 0 && (w.op < scratch_batch_[j - 1].op ||
                       (w.op == scratch_batch_[j - 1].op &&
                        w.sector < scratch_batch_[j - 1].sector))) {
        scratch_batch_[j] = scratch_batch_[j - 1];
        --j;
      }
      scratch_batch_[j] = w;
    }
    std::size_t run_begin = 0;
    Bytes run_bytes = 0;
    for (std::size_t i = 0; i < scratch_batch_.size(); ++i) {
      const Waiting& w = scratch_batch_[i];
      const bool continues =
          i > run_begin && w.op == scratch_batch_[i - 1].op &&
          w.sector == scratch_batch_[i - 1].end_sector() &&
          run_bytes + w.bytes <= max_merge_bytes_;
      if (!continues && i > run_begin) {
        execute(run_begin, i);
        run_begin = i;
        run_bytes = 0;
      }
      run_bytes += w.bytes;
    }
    execute(run_begin, scratch_batch_.size());
  }

  std::uint32_t alloc_txn() {
    if (!free_txns_.empty()) {
      const std::uint32_t t = free_txns_.back();
      free_txns_.pop_back();
      return t;
    }
    txns_.emplace_back();
    return static_cast<std::uint32_t>(txns_.size() - 1);
  }

  void free_txn(std::uint32_t t) {
    FlatTxn& txn = txns_[t];
    txn.members.clear();
    txn.rows_used = 0;
    free_txns_.push_back(t);
  }

  RowPhase& add_row(FlatTxn& txn) {
    if (txn.rows_used == txn.rows.size()) txn.rows.emplace_back();
    RowPhase& phase = txn.rows[txn.rows_used++];
    phase.writes.clear();
    return phase;
  }

  void execute(std::size_t begin, std::size_t end) {
    const std::uint32_t t = alloc_txn();
    FlatTxn& txn = txns_[t];
    const Waiting& first = scratch_batch_[begin];
    Bytes bytes = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Waiting& w = scratch_batch_[i];
      bytes += w.bytes;
      txn.members.push_back(Member{w.id, w.submit_time, w.bytes, w.op});
    }
    if (first.op == OpType::kRead) {
      issue_read(t, first.sector, bytes);
    } else {
      issue_write(t, first.sector, bytes);
    }
  }

  void issue_read(std::uint32_t t, Sector sector, Bytes bytes) {
    geometry_.map_into(sector * kSectorSize, bytes, extents_);
    std::size_t total = 0;
    for (const auto& extent : extents_) {
      total += disk_failed(extent.disk) ? config_.disk_count - 1 : 1;
    }
    txns_[t].pending = total;
    for (const auto& extent : extents_) {
      if (disk_failed(extent.disk)) {
        // Degraded read: XOR of the extent range on every surviving member.
        for (std::size_t d = 0; d < config_.disk_count; ++d) {
          if (disk_failed(d)) continue;
          append_child(d, extent.sector, extent.bytes, false, t, 0, 0);
        }
      } else {
        append_child(extent.disk, extent.sector, extent.bytes, false, t, 0,
                     0);
      }
    }
  }

  void issue_write(std::uint32_t t, Sector sector, Bytes bytes) {
    geometry_.map_into(sector * kSectorSize, bytes, extents_);

    if (geometry_.level == storage::RaidLevel::kRaid0) {
      txns_[t].pending = extents_.size();
      for (const auto& extent : extents_) {
        append_child(extent.disk, extent.sector, extent.bytes, true, t, 0,
                     0);
      }
      return;
    }

    storage::plan_raid5_write(geometry_, extents_, failed_disk_, plan_);
    const std::size_t total = plan_.reads.size() + plan_.writes.size();
    txns_[t].pending = total;
    if (total == 0) {
      // Degenerate corner: nothing physical to do.
      txns_[t].pending = 1;
      sim_.schedule(sim_.now(), kEvDegenerate, 0, t);
      return;
    }

    for (const storage::RowWritePlan& row : plan_.rows) {
      if (row.reads_end == row.reads_begin) {
        for (std::size_t w = row.writes_begin; w < row.writes_end; ++w) {
          const auto& extent = plan_.writes[w];
          append_child(extent.disk, extent.sector, extent.bytes, true, t, 0,
                       0);
        }
        continue;
      }
      FlatTxn& txn = txns_[t];
      const std::uint32_t phase_index = txn.rows_used;
      RowPhase& phase = add_row(txn);
      phase.reads_pending =
          static_cast<std::uint32_t>(row.reads_end - row.reads_begin);
      for (std::size_t w = row.writes_begin; w < row.writes_end; ++w) {
        const auto& extent = plan_.writes[w];
        phase.writes.push_back(
            Deferred{static_cast<std::uint32_t>(extent.disk), extent.sector,
                     static_cast<std::uint32_t>(extent.bytes)});
      }
      for (std::size_t r = row.reads_begin; r < row.reads_end; ++r) {
        const auto& extent = plan_.reads[r];
        append_child(extent.disk, extent.sector, extent.bytes, false, t, 1,
                     phase_index);
      }
    }
  }

  void child_completion(const ChildOp& op) {
    if (op.row_read) {
      RowPhase& phase = txns_[op.txn].rows[op.row];
      if (--phase.reads_pending == 0) {
        for (const Deferred& w : phase.writes) {
          append_child(w.disk, w.sector, w.bytes, true, op.txn, 0, 0);
        }
      }
    }
    child_done(op.txn);
  }

  void child_done(std::uint32_t t) {
    FlatTxn& txn = txns_[t];
    if (--txn.pending != 0) return;
    const Seconds finish = sim_.now();
    for (const Member& m : txn.members) {
      storage::IoCompletion completion{m.id, m.submit_time, finish, m.bytes,
                                       m.op};
      --engine_.packages_in_flight_;
      // Warm-up completions drained the device but never feed the monitor —
      // the same submit-time gate the classic kernel applies per bunch
      // (members of one bunch share their submit time).
      if (!(m.submit_time < warm_end_)) {
        engine_.monitor_.on_complete(completion);
      }
    }
    free_txn(t);
  }

  // ---------------------------------------------------------------------
  // Disk service (HddModel::start_next / SsdModel::start, flattened)
  // ---------------------------------------------------------------------

  void append_child(std::size_t disk, Sector sector, Bytes bytes, bool write,
                    std::uint32_t t, std::uint8_t row_read,
                    std::uint32_t row) {
    Lane& lane = lanes_[disk];
    ChildOp& op = lane.log.append();
    op.sector = sector;
    op.bytes = static_cast<std::uint32_t>(bytes);
    op.txn = t;
    op.row = row;
    op.write = write ? 1 : 0;
    op.row_read = row_read;
    if (!hdd_) {
      op.used_channels = static_cast<std::uint32_t>(
          storage::ssd_channels_for(config_.ssd, bytes));
    }
    if (hdd_) {
      if (!lane.busy) hdd_start_next(disk);
    } else {
      ssd_maybe_dispatch(disk);
    }
  }

  void hdd_start_next(std::size_t disk) {
    Lane& lane = lanes_[disk];
    if (lane.head >= lane.log.size()) return;
    lane.busy = true;
    const std::uint64_t idx = lane.head;
    ensure_planned(lane, idx);
    const ChildOp& op = lane.log.at(idx);
    const Seconds t0 = sim_.now();
    storage::hdd_add_service_pulses(config_.hdd, lane.timeline, t0, op.seek,
                                    op.rotation, op.transfer, op.write != 0);
    const Seconds finish = t0 + op.service;
    lane.head = idx + 1;
    sim_.schedule(finish, kEvHddDone, static_cast<std::uint32_t>(disk), idx);
  }

  void on_hdd_done(std::size_t disk, std::uint64_t idx) {
    Lane& lane = lanes_[disk];
    const ChildOp op = lane.log.at(idx);  // copy: block may be freed below
    lane.busy = false;
    // Start the next request before completing this one, so a completion
    // that submits more I/O sees a live queue (HddModel's ordering).
    hdd_start_next(disk);
    child_completion(op);
    lane.log.mark_completed(idx);
  }

  void ssd_maybe_dispatch(std::size_t disk) {
    Lane& lane = lanes_[disk];
    // FIFO with head-of-line blocking until enough channels free, exactly
    // SsdModel::maybe_dispatch. `used_channels` is written at append time,
    // so peeking it needs no plan.
    while (lane.head < lane.log.size() &&
           lane.log.at(lane.head).used_channels <=
               ssd_channels_ - lane.busy_channels) {
      const std::uint64_t idx = lane.head;
      ensure_planned(lane, idx);
      const ChildOp& op = lane.log.at(idx);
      lane.busy_channels += op.used_channels;
      const Seconds t0 = sim_.now();
      storage::ssd_add_service_pulse(config_.ssd, lane.timeline, t0,
                                     op.service, op.used_channels,
                                     op.write != 0);
      const Seconds finish = t0 + op.service;
      lane.head = idx + 1;
      sim_.schedule(finish, kEvSsdDone, static_cast<std::uint32_t>(disk),
                     idx);
    }
  }

  void on_ssd_done(std::size_t disk, std::uint64_t idx) {
    Lane& lane = lanes_[disk];
    const ChildOp op = lane.log.at(idx);  // copy: block may be freed below
    lane.busy_channels -= op.used_channels;
    ssd_maybe_dispatch(disk);
    child_completion(op);
    lane.log.mark_completed(idx);
  }

  // ---------------------------------------------------------------------
  // Batched SoA planning (mech_batch)
  // ---------------------------------------------------------------------

  /// Plan every appended-but-unplanned op of `lane` in kPlanBlock batches,
  /// in append order, when service reaches op `idx`.
  void ensure_planned(Lane& lane, std::uint64_t idx) {
    if (lane.planned > idx) return;
    const std::uint64_t tail = lane.log.size();
    std::uint64_t pos = lane.planned;
    while (pos < tail) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(tail - pos, kPlanBlock));
      for (std::size_t i = 0; i < n; ++i) {
        const ChildOp& op = lane.log.at(pos + i);
        scratch_.sectors[i] = op.sector;
        scratch_.bytes[i] = op.bytes;
        scratch_.ops[i] = op.write;
      }
      if (hdd_) {
        storage::hdd_plan_batch(config_.hdd, hdd_geom_, lane.hmech, lane.rng,
                                scratch_.sectors.data(), scratch_.bytes.data(),
                                n, scratch_.hplans.data());
        for (std::size_t i = 0; i < n; ++i) {
          const auto& plan = scratch_.hplans[i];
          ChildOp& op = lane.log.at(pos + i);
          op.seek = plan.seek;
          op.rotation = plan.rotation;
          op.transfer = plan.transfer;
          op.service = plan.service;
          lane.sequential_hits += plan.sequential ? 1 : 0;
        }
      } else {
        storage::ssd_plan_batch(config_.ssd, lane.smech,
                                scratch_.sectors.data(), scratch_.bytes.data(),
                                scratch_.ops.data(), n, scratch_.splans.data());
        for (std::size_t i = 0; i < n; ++i) {
          const auto& plan = scratch_.splans[i];
          ChildOp& op = lane.log.at(pos + i);
          // used_channels was set at append time; only latencies come here.
          op.transfer = plan.transfer;
          op.service = plan.service;
          lane.sequential_hits += plan.sequential ? 1 : 0;
        }
      }
      pos += n;
      ++lane.plan_batches;
      lane.planned_ops += n;
    }
    lane.planned = pos;
  }

  void publish_obs() {
    auto& reg = obs::Registry::global();
    // Same per-replay counters the classic kernel bumps, so dashboards and
    // the fig08/fig12 late-event assertions see both kernels uniformly.
    static auto& l_runs = reg.counter("replay.runs");
    static auto& l_bunches = reg.counter("replay.bunches");
    static auto& l_packages = reg.counter("replay.packages");
    static auto& l_events = reg.counter("replay.events_scheduled");
    static auto& l_late = reg.counter("replay.events_late");
    static auto& l_warmup = reg.counter("replay.warmup_packages");
    static auto& l_depth = reg.gauge("replay.max_in_flight");
    l_runs.increment();
    l_bunches.add(engine_.bunches_submitted_ + engine_.warmup_bunches_);
    l_packages.add(engine_.packages_submitted_ + engine_.warmup_packages_);
    l_warmup.add(engine_.warmup_packages_);
    l_events.add(sim_.events_dispatched());
    l_late.add(sim_.late_schedule_count());
    l_depth.update_max(static_cast<double>(engine_.max_in_flight_));

    static auto& planned = reg.counter("replay.flat.planned_ops");
    static auto& batches = reg.counter("replay.flat.plan_batches");
    static auto& seq_hits = reg.counter("replay.flat.sequential_hits");
    for (const Lane& lane : lanes_) {
      planned.add(lane.planned_ops);
      batches.add(lane.plan_batches);
      seq_hits.add(lane.sequential_hits);
    }
  }

  ReplayEngine& engine_;
  const trace::TraceSource& source_;
  const ArrayConfig& config_;
  storage::RaidLevel level_;
  storage::RaidGeometry geometry_;
  bool hdd_ = true;
  storage::HddMechGeometry hdd_geom_;
  std::size_t ssd_channels_ = 0;
  std::ptrdiff_t failed_disk_ = -1;
  Bytes max_merge_bytes_ = 0;

  power::PowerTimeline enclosure_;
  std::vector<Lane> lanes_;
  FlatArrayPower power_;
  sim::FlatSimulator sim_;
  power::PowerAnalyzer* analyzer_ = nullptr;

  // Controller state
  std::vector<Waiting> batch_;
  std::vector<Waiting> scratch_batch_;
  bool dispatch_scheduled_ = false;
  std::vector<FlatTxn> txns_;
  std::vector<std::uint32_t> free_txns_;
  std::vector<storage::RaidGeometry::Extent> extents_;
  storage::Raid5WritePlan plan_;
  PlanScratch scratch_;

  // Sampler state
  std::uint64_t last_completions_ = 0;
  Bytes last_bytes_ = 0;

  // Warm-up boundary (replay start when warmup_window == 0).
  Seconds warm_end_ = 0.0;
};

ReplayReport ReplayEngine::replay_flat(const trace::TraceSource& source,
                                       const storage::ArrayConfig& config,
                                       int failed_disk) {
  if (source.empty()) {
    throw std::invalid_argument("ReplayEngine: empty trace");
  }
  if (config.disk_count == 0) {
    throw std::logic_error("DiskArray: no disks installed");
  }
  // A controller cache changes the data path itself (requests may never
  // reach the media), so a cache-enabled config replays through the classic
  // kernel wrapped in a CacheTier — the exact construction the classic API
  // user would write, so metrics are identical by construction. The flat
  // kernel stays the media-direct fast path.
  if (config.cache.enabled) {
    static auto& cache_fallbacks =
        obs::Registry::global().counter("replay.flat.cache_fallbacks");
    cache_fallbacks.increment();
    storage::DiskArray array(sim_, config);
    if (failed_disk >= 0) {
      array.controller().fail_disk(static_cast<std::size_t>(failed_disk));
    }
    storage::CacheTier cache(sim_, config.cache, array);
    return replay(source, cache);
  }
  // The flat kernel assumes FIFO service order (plans are computed in
  // append order). LOOK arrays — and geometries whose extents overflow the
  // compact op encoding — replay through the classic kernel instead.
  const bool look_hdd = config.kind == storage::DiskKind::kHdd &&
                        config.hdd.discipline !=
                            storage::HddParams::Discipline::kFifo;
  const Bytes disk_cap = config.kind == storage::DiskKind::kHdd
                             ? config.hdd.capacity
                             : config.ssd.capacity;
  const bool rows_overflow =
      config.stripe_unit == 0 || disk_cap / config.stripe_unit > 0xffffffffULL;
  if (look_hdd || config.stripe_unit > 0xffffffffULL || rows_overflow) {
    static auto& fallbacks =
        obs::Registry::global().counter("replay.flat.fallbacks");
    fallbacks.increment();
    storage::DiskArray array(sim_, config);
    if (failed_disk >= 0) {
      array.controller().fail_disk(static_cast<std::size_t>(failed_disk));
    }
    return replay(source, array);
  }
  FlatReplayKernel kernel(*this, source, config, failed_disk);
  return kernel.run();
}

ReplayReport ReplayEngine::replay_flat(const trace::TraceView& view,
                                       const storage::ArrayConfig& config,
                                       int failed_disk) {
  const trace::ViewSource source(view);
  return replay_flat(static_cast<const trace::TraceSource&>(source), config,
                     failed_disk);
}

ReplayReport ReplayEngine::replay_flat(const trace::Trace& trace,
                                       const storage::ArrayConfig& config,
                                       int failed_disk) {
  return replay_flat(trace::TraceView::borrowed(trace), config, failed_disk);
}

}  // namespace tracer::core
