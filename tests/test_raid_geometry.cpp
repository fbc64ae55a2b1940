#include "storage/raid.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace tracer::storage {
namespace {

RaidGeometry testbed_geometry(std::size_t disks = 6) {
  return RaidGeometry(RaidLevel::kRaid5, disks, 128 * kKiB,
                      500ULL * 1000 * 1000 * 1000);
}

TEST(RaidGeometry, RejectsInvalidConfigurations) {
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 2, 128 * kKiB, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid0, 0, 128 * kKiB, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, 0, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, 100, kGiB),
               std::invalid_argument);  // not sector multiple
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, kMiB, 1024),
               std::invalid_argument);  // capacity < unit
}

TEST(RaidGeometry, CapacityExcludesParity) {
  const auto geometry = testbed_geometry(6);
  EXPECT_EQ(geometry.data_disks(), 5u);
  EXPECT_EQ(geometry.capacity(), geometry.rows() * geometry.stripe_unit * 5);

  RaidGeometry raid0(RaidLevel::kRaid0, 6, 128 * kKiB,
                     500ULL * 1000 * 1000 * 1000);
  EXPECT_EQ(raid0.data_disks(), 6u);
  EXPECT_GT(raid0.capacity(), geometry.capacity());
}

TEST(RaidGeometry, ParityRotatesThroughAllDisks) {
  const auto geometry = testbed_geometry(6);
  std::set<std::size_t> parity_disks;
  for (std::uint64_t row = 0; row < 6; ++row) {
    const std::size_t pd = geometry.parity_disk(row);
    EXPECT_LT(pd, 6u);
    parity_disks.insert(pd);
  }
  EXPECT_EQ(parity_disks.size(), 6u);  // left-symmetric full rotation
  EXPECT_EQ(geometry.parity_disk(0), 5u);
  EXPECT_EQ(geometry.parity_disk(1), 4u);
  EXPECT_EQ(geometry.parity_disk(6), 5u);  // period = disk count
}

TEST(RaidGeometry, Raid0HasNoParityDisk) {
  RaidGeometry raid0(RaidLevel::kRaid0, 4, 128 * kKiB, kGiB);
  EXPECT_THROW(raid0.parity_disk(0), std::logic_error);
}

TEST(RaidGeometry, MapSplitsAtStripeUnitBoundaries) {
  const auto geometry = testbed_geometry(6);
  // 300 KB starting 64 KB into unit 0: 64K + 128K + 108K.
  const auto extents = geometry.map(64 * kKiB, 300 * kKiB);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].bytes, 64 * kKiB);
  EXPECT_EQ(extents[1].bytes, 128 * kKiB);
  EXPECT_EQ(extents[2].bytes, 108 * kKiB);
  EXPECT_EQ(extents[0].offset_in_unit, 64 * kKiB);
  EXPECT_EQ(extents[1].offset_in_unit, 0u);
}

TEST(RaidGeometry, MapRejectsBeyondCapacity) {
  const auto geometry = testbed_geometry(6);
  EXPECT_THROW(geometry.map(geometry.capacity() - 4096, 8192),
               std::out_of_range);
}

TEST(RaidGeometry, DataNeverLandsOnParityDisk) {
  const auto geometry = testbed_geometry(6);
  for (std::uint64_t unit = 0; unit < 600; ++unit) {
    const auto extents =
        geometry.map(unit * geometry.stripe_unit, geometry.stripe_unit);
    ASSERT_EQ(extents.size(), 1u);
    EXPECT_NE(extents[0].disk, geometry.parity_disk(extents[0].row));
  }
}

TEST(RaidGeometry, RowFillsEveryNonParityDiskExactlyOnce) {
  const auto geometry = testbed_geometry(6);
  for (std::uint64_t row = 0; row < 20; ++row) {
    std::set<std::size_t> disks;
    for (std::size_t position = 0; position < geometry.data_disks();
         ++position) {
      const Bytes addr =
          (row * geometry.data_disks() + position) * geometry.stripe_unit;
      const auto extents = geometry.map(addr, geometry.stripe_unit);
      ASSERT_EQ(extents.size(), 1u);
      EXPECT_EQ(extents[0].row, row);
      disks.insert(extents[0].disk);
    }
    disks.insert(geometry.parity_disk(row));
    EXPECT_EQ(disks.size(), geometry.disk_count);  // full coverage, no dup
  }
}

TEST(RaidGeometry, MappingIsInjectivePerDiskSector) {
  // Property: distinct logical units never collide on (disk, sector).
  const auto geometry = testbed_geometry(5);
  std::map<std::pair<std::size_t, Sector>, Bytes> seen;
  for (std::uint64_t unit = 0; unit < 1000; ++unit) {
    const Bytes addr = unit * geometry.stripe_unit;
    const auto extents = geometry.map(addr, geometry.stripe_unit);
    ASSERT_EQ(extents.size(), 1u);
    const auto key = std::make_pair(extents[0].disk, extents[0].sector);
    ASSERT_EQ(seen.count(key), 0u) << "collision at logical unit " << unit;
    seen[key] = addr;
  }
}

TEST(RaidGeometry, MapPreservesTotalBytes) {
  const auto geometry = testbed_geometry(6);
  // Property sweep over odd sizes and offsets.
  for (Bytes offset : {0ULL, 512ULL, 4096ULL, 130048ULL, 262144ULL}) {
    for (Bytes size : {512ULL, 4096ULL, 65536ULL, 131072ULL, 1048576ULL}) {
      const auto extents = geometry.map(offset, size);
      Bytes total = 0;
      for (const auto& extent : extents) total += extent.bytes;
      EXPECT_EQ(total, size);
    }
  }
}

TEST(RaidGeometry, ParityExtentMatchesRowAndOffset) {
  const auto geometry = testbed_geometry(6);
  const auto parity = geometry.parity_extent(3, 4096, 8192);
  EXPECT_EQ(parity.disk, geometry.parity_disk(3));
  EXPECT_EQ(parity.sector, (3 * geometry.stripe_unit + 4096) / kSectorSize);
  EXPECT_EQ(parity.bytes, 8192u);
  EXPECT_EQ(parity.row, 3u);
}

TEST(RaidGeometry, SequentialUnitsRotateAcrossDisks) {
  // Consecutive logical units in one row land on distinct disks (striping).
  const auto geometry = testbed_geometry(6);
  std::set<std::size_t> disks;
  for (std::size_t position = 0; position < geometry.data_disks();
       ++position) {
    const auto extents = geometry.map(position * geometry.stripe_unit,
                                      geometry.stripe_unit);
    disks.insert(extents[0].disk);
  }
  EXPECT_EQ(disks.size(), geometry.data_disks());
}

// ---------------------------------------------------------------------------
// plan_raid5_write: the single RAID-5 row plan RaidController and the flat
// replay kernel both execute.
// ---------------------------------------------------------------------------

using Op = std::tuple<std::size_t, Sector, Bytes>;  // (disk, sector, bytes)

std::vector<Op> ops_of(const std::vector<RaidGeometry::Extent>& extents,
                       std::size_t begin, std::size_t end) {
  std::vector<Op> ops;
  for (std::size_t i = begin; i < end; ++i) {
    ops.emplace_back(extents[i].disk, extents[i].sector, extents[i].bytes);
  }
  return ops;
}

TEST(Raid5WritePlan, EveryRowKindPlansItsReadsAndWrites) {
  // 4 disks, 64 KiB units: row 0 keeps data on disks 0,1,2 and parity on
  // disk 3; row 1 keeps data on 3,0,1 and parity on disk 2.
  constexpr Bytes kUnit = 64 * kKiB;
  constexpr Sector kUnitSectors = kUnit / kSectorSize;
  const RaidGeometry geometry(RaidLevel::kRaid5, 4, kUnit, 64 * kMiB);
  struct RowCase {
    std::uint64_t row;
    RowWriteKind kind;
    std::vector<Op> reads;
    std::vector<Op> writes;
  };
  struct Case {
    const char* name;
    Bytes logical_byte;
    Bytes bytes;
    std::ptrdiff_t failed_disk;
    std::vector<RowCase> rows;
  };
  const std::vector<Case> cases = {
      {"full stripe",
       0,
       3 * kUnit,
       -1,
       {{0,
         RowWriteKind::kFullStripe,
         {},
         {{0, 0, kUnit}, {1, 0, kUnit}, {2, 0, kUnit}, {3, 0, kUnit}}}}},
      {"full stripe, data member failed",
       0,
       3 * kUnit,
       1,
       {{0,
         RowWriteKind::kFullStripe,
         {},
         {{0, 0, kUnit}, {2, 0, kUnit}, {3, 0, kUnit}}}}},
      {"read-modify-write",
       8 * kKiB,
       4 * kKiB,
       -1,
       {{0,
         RowWriteKind::kReadModifyWrite,
         {{0, 16, 4 * kKiB}, {3, 16, 4 * kKiB}},
         {{0, 16, 4 * kKiB}, {3, 16, 4 * kKiB}}}}},
      {"reconstruct-write",
       kUnit + 8 * kKiB,
       4 * kKiB,
       1,
       {{0,
         RowWriteKind::kReconstructWrite,
         {{0, 16, 4 * kKiB}, {2, 16, 4 * kKiB}},
         {{3, 16, 4 * kKiB}}}}},
      {"parity member failed",
       8 * kKiB,
       4 * kKiB,
       3,
       {{0, RowWriteKind::kParityLost, {}, {{0, 16, 4 * kKiB}}}}},
      {"two rows, both read-modify-write",
       2 * kUnit,
       kUnit + 4 * kKiB,
       -1,
       {{0,
         RowWriteKind::kReadModifyWrite,
         {{2, 0, kUnit}, {3, 0, kUnit}},
         {{2, 0, kUnit}, {3, 0, kUnit}}},
        {1,
         RowWriteKind::kReadModifyWrite,
         {{3, kUnitSectors, 4 * kKiB}, {2, kUnitSectors, 4 * kKiB}},
         {{3, kUnitSectors, 4 * kKiB}, {2, kUnitSectors, 4 * kKiB}}}}},
  };
  Raid5WritePlan plan;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    plan_raid5_write(geometry, geometry.map(c.logical_byte, c.bytes),
                     c.failed_disk, plan);
    ASSERT_EQ(plan.rows.size(), c.rows.size());
    std::size_t reads_at = 0;
    std::size_t writes_at = 0;
    for (std::size_t r = 0; r < c.rows.size(); ++r) {
      const RowWritePlan& row = plan.rows[r];
      EXPECT_EQ(row.row, c.rows[r].row);
      EXPECT_EQ(row.kind, c.rows[r].kind);
      // Rows own consecutive, gap-free slices of reads and writes.
      EXPECT_EQ(row.reads_begin, reads_at);
      EXPECT_EQ(row.writes_begin, writes_at);
      EXPECT_EQ(ops_of(plan.reads, row.reads_begin, row.reads_end),
                c.rows[r].reads);
      EXPECT_EQ(ops_of(plan.writes, row.writes_begin, row.writes_end),
                c.rows[r].writes);
      reads_at = row.reads_end;
      writes_at = row.writes_end;
    }
    EXPECT_EQ(reads_at, plan.reads.size());
    EXPECT_EQ(writes_at, plan.writes.size());
  }

  // Degenerate corner: no extents, nothing to plan — and the plan's
  // previous contents are cleared.
  plan_raid5_write(geometry, {}, -1, plan);
  EXPECT_TRUE(plan.rows.empty());
  EXPECT_TRUE(plan.reads.empty());
  EXPECT_TRUE(plan.writes.empty());
}

TEST(Raid5WritePlan, SmallRandomWriteCostsExactlyFourDiskIos) {
  // The paper's small-write penalty (§VI, Fig 11): a write inside one
  // stripe unit of a healthy RAID-5 reads old data + old parity and writes
  // new data + new parity — 2 reads, 2 writes, 4 disk I/Os.
  util::Rng rng(2010);
  Raid5WritePlan plan;
  for (const std::size_t disks : {3u, 4u, 6u, 8u}) {
    const RaidGeometry geometry(RaidLevel::kRaid5, disks, 128 * kKiB,
                                256 * kMiB);
    const std::uint64_t unit_sectors = geometry.stripe_unit / kSectorSize;
    const std::uint64_t units = geometry.rows() * geometry.data_disks();
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t unit = rng.below(units);
      const std::uint64_t offset = rng.below(unit_sectors);
      // 1 .. (unit_sectors - offset) sectors, never the whole unit.
      std::uint64_t sectors = 1 + rng.below(unit_sectors - offset);
      if (sectors == unit_sectors) --sectors;
      const Bytes logical =
          unit * geometry.stripe_unit + offset * kSectorSize;
      const auto extents = geometry.map(logical, sectors * kSectorSize);
      ASSERT_EQ(extents.size(), 1u);
      plan_raid5_write(geometry, extents, -1, plan);
      ASSERT_EQ(plan.rows.size(), 1u);
      EXPECT_EQ(plan.rows[0].kind, RowWriteKind::kReadModifyWrite);
      ASSERT_EQ(plan.reads.size(), 2u);
      ASSERT_EQ(plan.writes.size(), 2u);
      EXPECT_EQ(plan.reads.size() + plan.writes.size(), 4u);
      // Data and parity land on distinct members, at the same sectors.
      const std::size_t parity = geometry.parity_disk(extents[0].row);
      EXPECT_EQ(plan.reads[0].disk, extents[0].disk);
      EXPECT_EQ(plan.reads[1].disk, parity);
      EXPECT_NE(extents[0].disk, parity);
      EXPECT_EQ(plan.reads[1].sector, extents[0].sector);
      EXPECT_EQ(plan.writes[0].disk, extents[0].disk);
      EXPECT_EQ(plan.writes[1].disk, parity);
    }
  }
}

}  // namespace
}  // namespace tracer::storage
