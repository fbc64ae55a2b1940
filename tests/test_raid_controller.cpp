#include "storage/raid_controller.h"

#include <gtest/gtest.h>

#include <vector>

#include "power/power_timeline.h"

namespace tracer::storage {
namespace {

/// Instant-completion fake disk that records the child ops it receives.
class RecordingDisk final : public BlockDevice {
 public:
  RecordingDisk(sim::Simulator& sim, Bytes capacity, Seconds latency = 1e-4)
      : BlockDevice(sim), capacity_(capacity), latency_(latency) {}

  Bytes capacity() const override { return capacity_; }
  std::size_t outstanding() const override { return outstanding_; }
  std::string name() const override { return "recording"; }
  Watts power_at(Seconds) const override { return 1.0; }
  Joules energy_until(Seconds t) override { return t; }

  void submit(const IoRequest& request, CompletionCallback done) override {
    ops.push_back(request);
    ++outstanding_;
    sim_.schedule_in(latency_, [this, request, done = std::move(done)] {
      --outstanding_;
      done(IoCompletion{request.id, sim_.now() - latency_, sim_.now(),
                        request.bytes, request.op});
    });
  }

  std::vector<IoRequest> ops;

 private:
  Bytes capacity_;
  Seconds latency_;
  std::size_t outstanding_ = 0;
};

struct Fixture {
  static constexpr Bytes kDiskCapacity = 64ULL * 1024 * 1024;
  sim::Simulator sim;
  std::vector<std::unique_ptr<RecordingDisk>> disks;
  std::vector<IoCompletion> completions;

  std::unique_ptr<RaidController> make(std::size_t disk_count,
                                       RaidLevel level = RaidLevel::kRaid5) {
    std::vector<BlockDevice*> raw;
    for (std::size_t i = 0; i < disk_count; ++i) {
      disks.push_back(std::make_unique<RecordingDisk>(sim, kDiskCapacity));
      raw.push_back(disks.back().get());
    }
    RaidGeometry geometry(level, disk_count, 128 * kKiB, kDiskCapacity);
    return std::make_unique<RaidController>(sim, geometry, std::move(raw),
                                            0.05e-3);
  }

  CompletionCallback collect() {
    return [this](const IoCompletion& c) { completions.push_back(c); };
  }

  std::size_t total_child_ops() const {
    std::size_t n = 0;
    for (const auto& disk : disks) n += disk->ops.size();
    return n;
  }
};

TEST(RaidController, RejectsMismatchedDiskList) {
  sim::Simulator sim;
  RaidGeometry geometry(RaidLevel::kRaid5, 4, 128 * kKiB, kMiB);
  EXPECT_THROW(RaidController(sim, geometry, {}), std::invalid_argument);
}

TEST(RaidController, RejectsOutOfRangeRequests) {
  Fixture f;
  auto raid = f.make(4);
  const Sector beyond = raid->capacity() / kSectorSize;
  EXPECT_THROW(
      raid->submit(IoRequest{1, beyond, 4096, OpType::kRead}, f.collect()),
      std::out_of_range);
  EXPECT_THROW(raid->submit(IoRequest{1, 0, 0, OpType::kRead}, f.collect()),
               std::invalid_argument);
}

TEST(RaidController, SingleUnitReadTouchesOneDisk) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(raid->stats().logical_reads, 1u);
  EXPECT_EQ(raid->stats().child_reads, 1u);
}

TEST(RaidController, SpanningReadFansOut) {
  Fixture f;
  auto raid = f.make(6);
  // 256 KB starting at 64 KB into unit 0 -> 3 extents on 3 disks.
  raid->submit(IoRequest{1, (64 * kKiB) / kSectorSize, 256 * kKiB,
                         OpType::kRead},
               f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 3u);
  EXPECT_EQ(f.completions.size(), 1u);
}

TEST(RaidController, SmallWritePaysReadModifyWrite) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  // RMW: read old data + old parity, write new data + new parity.
  EXPECT_EQ(f.total_child_ops(), 4u);
  EXPECT_EQ(raid->stats().rmw_rows, 1u);
  EXPECT_EQ(raid->stats().full_stripe_writes, 0u);
  EXPECT_EQ(raid->stats().child_reads, 2u);
  EXPECT_EQ(raid->stats().child_writes, 2u);
}

TEST(RaidController, RmwWritesGoOutAfterReads) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  // Recorded per disk in submission order: each disk saw read before write.
  for (const auto& disk : f.disks) {
    if (disk->ops.size() == 2) {
      EXPECT_EQ(disk->ops[0].op, OpType::kRead);
      EXPECT_EQ(disk->ops[1].op, OpType::kWrite);
    }
  }
}

TEST(RaidController, FullStripeWriteSkipsReads) {
  Fixture f;
  auto raid = f.make(6);
  const Bytes full_row = 5 * 128 * kKiB;
  raid->submit(IoRequest{1, 0, full_row, OpType::kWrite}, f.collect());
  f.sim.run();
  // 5 data writes + 1 parity write; zero reads.
  EXPECT_EQ(f.total_child_ops(), 6u);
  EXPECT_EQ(raid->stats().full_stripe_writes, 1u);
  EXPECT_EQ(raid->stats().child_reads, 0u);
  EXPECT_EQ(raid->stats().child_writes, 6u);
}

TEST(RaidController, Raid0WriteHasNoParityCost) {
  Fixture f;
  auto raid = f.make(4, RaidLevel::kRaid0);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
}

TEST(RaidController, MergesContiguousRequestsInBatch) {
  Fixture f;
  auto raid = f.make(6);
  // Eight contiguous 16 KB reads submitted back-to-back (same batch
  // window) covering one 128 KB unit -> one child read.
  for (int i = 0; i < 8; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 32, 16 * kKiB,
                           OpType::kRead},
                 f.collect());
  }
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
  EXPECT_EQ(f.completions.size(), 8u);
  EXPECT_EQ(raid->stats().merged_batches, 1u);
}

TEST(RaidController, DoesNotMergeAcrossOpTypes) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 16 * kKiB, OpType::kRead}, f.collect());
  raid->submit(IoRequest{2, 32, 16 * kKiB, OpType::kWrite}, f.collect());
  f.sim.run();
  // Read stays one op; the write RMWs: 1 + 4 children.
  EXPECT_EQ(f.total_child_ops(), 5u);
}

TEST(RaidController, MergeCapsAtStripeWidth) {
  Fixture f;
  auto raid = f.make(6);
  // 6 contiguous 128 KB reads = 768 KB > 5-unit stripe width (640 KB):
  // must split into at least two merged ops.
  for (int i = 0; i < 6; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 256, 128 * kKiB,
                           OpType::kRead},
                 f.collect());
  }
  f.sim.run();
  EXPECT_GE(f.total_child_ops(), 6u);  // still one child per unit
  EXPECT_EQ(f.completions.size(), 6u);
}

TEST(RaidController, CompletionCarriesLatencyAndIds) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{77, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].id, 77u);
  EXPECT_GT(f.completions[0].latency(), 0.0);
  EXPECT_EQ(f.completions[0].bytes, 4096u);
}

TEST(RaidController, OutstandingDrainsToZero) {
  Fixture f;
  auto raid = f.make(6);
  for (int i = 0; i < 10; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 1000, 8192,
                           OpType::kWrite},
                 f.collect());
  }
  EXPECT_GT(raid->outstanding(), 0u);
  f.sim.run();
  EXPECT_EQ(raid->outstanding(), 0u);
  EXPECT_EQ(f.completions.size(), 10u);
}

TEST(RaidController, AggregatesMemberDiskPower) {
  Fixture f;
  auto raid = f.make(6);
  EXPECT_DOUBLE_EQ(raid->power_at(0.0), 6.0);   // 1 W per recording disk
  EXPECT_DOUBLE_EQ(raid->energy_until(5.0), 30.0);
}

}  // namespace
}  // namespace tracer::storage
