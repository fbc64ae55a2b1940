#include "storage/raid.h"

#include <algorithm>

namespace tracer::storage {

RaidGeometry::RaidGeometry(RaidLevel lvl, std::size_t disks, Bytes unit,
                           Bytes disk_cap)
    : level(lvl), disk_count(disks), stripe_unit(unit), disk_capacity(disk_cap) {
  if (disks == 0 || (lvl == RaidLevel::kRaid5 && disks < 3)) {
    throw std::invalid_argument("RaidGeometry: RAID-5 needs >= 3 disks");
  }
  if (unit == 0 || unit % kSectorSize != 0) {
    throw std::invalid_argument(
        "RaidGeometry: stripe unit must be a positive sector multiple");
  }
  if (disk_cap < unit) {
    throw std::invalid_argument("RaidGeometry: disk capacity < stripe unit");
  }
}

Bytes RaidGeometry::capacity() const {
  return rows() * stripe_unit * data_disks();
}

std::size_t RaidGeometry::parity_disk(std::uint64_t row) const {
  if (level != RaidLevel::kRaid5) {
    throw std::logic_error("parity_disk: not a parity RAID level");
  }
  return disk_count - 1 - static_cast<std::size_t>(row % disk_count);
}

std::vector<RaidGeometry::Extent> RaidGeometry::map(Bytes logical_byte,
                                                    Bytes bytes) const {
  std::vector<Extent> extents;
  map_into(logical_byte, bytes, extents);
  return extents;
}

void RaidGeometry::map_into(Bytes logical_byte, Bytes bytes,
                            std::vector<Extent>& out) const {
  if (logical_byte + bytes > capacity()) {
    throw std::out_of_range("RaidGeometry::map: extent beyond capacity");
  }
  out.clear();
  Bytes remaining = bytes;
  Bytes at = logical_byte;
  while (remaining > 0) {
    const std::uint64_t unit_index = at / stripe_unit;
    const Bytes offset = at % stripe_unit;
    const Bytes chunk = std::min<Bytes>(remaining, stripe_unit - offset);

    const std::uint64_t row = unit_index / data_disks();
    const auto position = static_cast<std::size_t>(unit_index % data_disks());

    std::size_t disk;
    if (level == RaidLevel::kRaid5) {
      // Left-symmetric: data units fill the row starting just after the
      // parity disk, wrapping around.
      const std::size_t pd = parity_disk(row);
      disk = (pd + 1 + position) % disk_count;
    } else {
      disk = position;
    }

    Extent extent;
    extent.disk = disk;
    extent.sector = (row * stripe_unit + offset) / kSectorSize;
    extent.bytes = chunk;
    extent.row = row;
    extent.offset_in_unit = offset;
    out.push_back(extent);

    at += chunk;
    remaining -= chunk;
  }
}

RaidGeometry::Extent RaidGeometry::parity_extent(std::uint64_t row,
                                                 Bytes offset_in_unit,
                                                 Bytes bytes) const {
  Extent extent;
  extent.disk = parity_disk(row);
  extent.sector = (row * stripe_unit + offset_in_unit) / kSectorSize;
  extent.bytes = bytes;
  extent.row = row;
  extent.offset_in_unit = offset_in_unit;
  return extent;
}

void plan_raid5_write(const RaidGeometry& geometry,
                      const std::vector<RaidGeometry::Extent>& extents,
                      std::ptrdiff_t failed_disk, Raid5WritePlan& out) {
  out.reads.clear();
  out.writes.clear();
  out.rows.clear();
  auto disk_failed = [failed_disk](std::size_t disk) {
    return failed_disk == static_cast<std::ptrdiff_t>(disk);
  };
  const Bytes full_row = geometry.stripe_unit * geometry.data_disks();
  // map_into emits rows in non-decreasing order, so each row's extents are
  // one contiguous run [gb, ge).
  std::size_t gb = 0;
  while (gb < extents.size()) {
    std::size_t ge = gb + 1;
    while (ge < extents.size() && extents[ge].row == extents[gb].row) ++ge;
    const std::uint64_t row = extents[gb].row;
    Bytes row_bytes = 0;
    Bytes min_offset = ~0ULL;
    Bytes max_end = 0;
    bool has_failed_extent = false;
    for (std::size_t i = gb; i < ge; ++i) {
      row_bytes += extents[i].bytes;
      min_offset = std::min(min_offset, extents[i].offset_in_unit);
      max_end = std::max(max_end, extents[i].offset_in_unit + extents[i].bytes);
      if (disk_failed(extents[i].disk)) has_failed_extent = true;
    }
    RowWritePlan plan;
    plan.row = row;
    plan.reads_begin = out.reads.size();
    plan.writes_begin = out.writes.size();
    const std::size_t pd = geometry.parity_disk(row);
    const auto parity =
        geometry.parity_extent(row, min_offset, max_end - min_offset);

    if (row_bytes == full_row) {
      // Parity is computed in-core; a failed member simply receives nothing.
      plan.kind = RowWriteKind::kFullStripe;
      for (std::size_t i = gb; i < ge; ++i) {
        if (!disk_failed(extents[i].disk)) out.writes.push_back(extents[i]);
      }
      if (!disk_failed(pd)) {
        out.writes.push_back(
            geometry.parity_extent(row, 0, geometry.stripe_unit));
      }
    } else if (disk_failed(pd)) {
      // Nothing to maintain until rebuild: the data writes land directly.
      plan.kind = RowWriteKind::kParityLost;
      for (std::size_t i = gb; i < ge; ++i) out.writes.push_back(extents[i]);
    } else if (has_failed_extent) {
      // New parity is recomputed from the surviving data units over the
      // touched span (each member stores it at the same disk-local sectors).
      plan.kind = RowWriteKind::kReconstructWrite;
      for (std::size_t d = 0; d < geometry.disk_count; ++d) {
        if (disk_failed(d) || d == pd) continue;
        RaidGeometry::Extent read_extent = parity;
        read_extent.disk = d;
        out.reads.push_back(read_extent);
      }
      for (std::size_t i = gb; i < ge; ++i) {
        if (!disk_failed(extents[i].disk)) out.writes.push_back(extents[i]);
      }
      out.writes.push_back(parity);
    } else {
      plan.kind = RowWriteKind::kReadModifyWrite;
      for (std::size_t i = gb; i < ge; ++i) out.reads.push_back(extents[i]);
      out.reads.push_back(parity);
      for (std::size_t i = gb; i < ge; ++i) out.writes.push_back(extents[i]);
      out.writes.push_back(parity);
    }
    plan.reads_end = out.reads.size();
    plan.writes_end = out.writes.size();
    out.rows.push_back(plan);
    gb = ge;
  }
}

}  // namespace tracer::storage
