#include "storage/raid_controller.h"

#include <algorithm>
#include <stdexcept>

namespace tracer::storage {

struct RaidController::Transaction {
  // The merged extent this transaction services.
  Sector sector = 0;
  Bytes bytes = 0;
  OpType op = OpType::kRead;
  // Original requests completing together when the merged op finishes.
  std::vector<Waiting> members;
  std::size_t pending = 0;  // children in flight
  // RAID-5 writes: when a row's reads finish, its writes go out.
  Raid5WritePlan plan;
  std::vector<std::size_t> row_reads_pending;  // indexed like plan.rows
};

RaidController::RaidController(sim::Simulator& sim, RaidGeometry geometry,
                               std::vector<BlockDevice*> disks,
                               Seconds dispatch_overhead)
    : BlockDevice(sim),
      geometry_(std::move(geometry)),
      disks_(std::move(disks)),
      dispatch_overhead_(dispatch_overhead),
      max_merge_bytes_(geometry_.stripe_unit * geometry_.data_disks()) {
  if (disks_.size() != geometry_.disk_count) {
    throw std::invalid_argument(
        "RaidController: disk list does not match geometry");
  }
  for (auto* disk : disks_) {
    if (disk == nullptr) {
      throw std::invalid_argument("RaidController: null member disk");
    }
    if (disk->capacity() < geometry_.disk_capacity) {
      throw std::invalid_argument(
          "RaidController: member disk smaller than geometry expects");
    }
  }
}

Watts RaidController::power_at(Seconds t) const {
  Watts total = 0.0;
  for (const auto* disk : disks_) total += disk->power_at(t);
  return total;
}

Joules RaidController::energy_until(Seconds t) {
  Joules total = 0.0;
  for (auto* disk : disks_) total += disk->energy_until(t);
  return total;
}

void RaidController::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("RaidController: zero-byte request");
  }
  if (request.sector * kSectorSize + request.bytes > capacity()) {
    throw std::out_of_range("RaidController: request beyond capacity");
  }
  ++outstanding_;
  batch_.push_back(Waiting{request, std::move(done), sim_.now()});
  if (!dispatch_scheduled_) {
    dispatch_scheduled_ = true;
    sim_.schedule_in(dispatch_overhead_, [this] { dispatch_batch(); });
  }
}

void RaidController::dispatch_batch() {
  dispatch_scheduled_ = false;
  std::vector<Waiting> batch = std::move(batch_);
  batch_.clear();
  if (batch.empty()) return;

  if (batch.size() == 1) {
    execute(std::move(batch));
    return;
  }

  // Elevator merge: sort by (op, sector) and coalesce contiguous runs of
  // the same direction, capped at one stripe width.
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Waiting& a, const Waiting& b) {
                     if (a.request.op != b.request.op) {
                       return a.request.op < b.request.op;
                     }
                     return a.request.sector < b.request.sector;
                   });
  std::vector<Waiting> run;
  Bytes run_bytes = 0;
  auto flush_run = [&] {
    if (!run.empty()) {
      if (run.size() > 1) ++stats_.merged_batches;
      execute(std::move(run));
      run.clear();
      run_bytes = 0;
    }
  };
  for (auto& waiting : batch) {
    const bool continues =
        !run.empty() && waiting.request.op == run.back().request.op &&
        waiting.request.sector == run.back().request.end_sector() &&
        run_bytes + waiting.request.bytes <= max_merge_bytes_;
    if (!continues) flush_run();
    run_bytes += waiting.request.bytes;
    run.push_back(std::move(waiting));
  }
  flush_run();
}

void RaidController::execute(std::vector<Waiting> members) {
  auto txn = std::make_shared<Transaction>();
  txn->sector = members.front().request.sector;
  txn->op = members.front().request.op;
  Bytes bytes = 0;
  for (const auto& member : members) bytes += member.request.bytes;
  txn->bytes = bytes;
  txn->members = std::move(members);

  if (txn->op == OpType::kRead) {
    stats_.logical_reads += txn->members.size();
    issue_read(txn);
  } else {
    stats_.logical_writes += txn->members.size();
    issue_write(txn);
  }
}

void RaidController::fail_disk(std::size_t disk) {
  if (geometry_.level != RaidLevel::kRaid5) {
    throw std::logic_error("fail_disk: degraded mode needs RAID-5");
  }
  if (disk >= disks_.size()) {
    throw std::out_of_range("fail_disk: no such member");
  }
  if (failed_disk_ >= 0) {
    throw std::logic_error(
        "fail_disk: a member is already failed (double fault loses data)");
  }
  failed_disk_ = static_cast<std::ptrdiff_t>(disk);
}

void RaidController::restore_disk(std::size_t disk) {
  if (failed_disk_ != static_cast<std::ptrdiff_t>(disk)) {
    throw std::logic_error("restore_disk: that member is not failed");
  }
  failed_disk_ = -1;
}

void RaidController::issue_read(const std::shared_ptr<Transaction>& txn) {
  const Bytes logical_byte = txn->sector * kSectorSize;
  const auto extents = geometry_.map(logical_byte, txn->bytes);

  // Count children first (reconstructed extents fan out to n-1 reads).
  std::size_t total = 0;
  for (const auto& extent : extents) {
    total += failed_disk_ == static_cast<std::ptrdiff_t>(extent.disk)
                 ? disks_.size() - 1
                 : 1;
  }
  txn->pending = total;
  stats_.child_reads += total;

  for (const auto& extent : extents) {
    if (failed_disk_ == static_cast<std::ptrdiff_t>(extent.disk)) {
      // Degraded read: XOR of the same extent range on every surviving
      // member (each member stores its unit of the row at the same
      // disk-local sectors, so the addresses coincide).
      ++stats_.reconstructed_reads;
      for (std::size_t d = 0; d < disks_.size(); ++d) {
        if (static_cast<std::ptrdiff_t>(d) == failed_disk_) continue;
        issue_child(d, extent.sector, extent.bytes, OpType::kRead, txn);
      }
    } else {
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kRead,
                  txn);
    }
  }
}

void RaidController::issue_write(const std::shared_ptr<Transaction>& txn) {
  const Bytes logical_byte = txn->sector * kSectorSize;
  const auto extents = geometry_.map(logical_byte, txn->bytes);

  if (geometry_.level == RaidLevel::kRaid0) {
    txn->pending = extents.size();
    stats_.child_writes += extents.size();
    for (const auto& extent : extents) {
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kWrite,
                  txn);
    }
    return;
  }

  Raid5WritePlan& plan = txn->plan;
  plan_raid5_write(geometry_, extents, failed_disk_, plan);
  for (const RowWritePlan& row : plan.rows) {
    if (row.kind == RowWriteKind::kFullStripe) {
      ++stats_.full_stripe_writes;
    } else if (row.kind != RowWriteKind::kParityLost) {
      ++stats_.rmw_rows;
    }
  }

  // Count every child before issuing so completions cannot race the loop.
  const std::size_t total_children = plan.reads.size() + plan.writes.size();
  txn->pending = total_children;
  if (total_children == 0) {
    // Degenerate corner: nothing physical to do.
    txn->pending = 1;
    sim_.schedule_in(0.0, [this, txn] { child_done(txn); });
    return;
  }

  txn->row_reads_pending.assign(plan.rows.size(), 0);
  for (std::size_t r = 0; r < plan.rows.size(); ++r) {
    const RowWritePlan& row = plan.rows[r];
    if (row.reads_begin == row.reads_end) {
      issue_row_writes(txn, row);
      continue;
    }
    txn->row_reads_pending[r] = row.reads_end - row.reads_begin;
    auto on_row_read = [this, txn, r](const IoCompletion&) {
      if (--txn->row_reads_pending[r] == 0) {
        issue_row_writes(txn, txn->plan.rows[r]);
      }
      child_done(txn);
    };
    stats_.child_reads += row.reads_end - row.reads_begin;
    for (std::size_t i = row.reads_begin; i < row.reads_end; ++i) {
      const auto& extent = plan.reads[i];
      IoRequest read_req{next_child_id_++, extent.sector, extent.bytes,
                         OpType::kRead};
      disks_[extent.disk]->submit(read_req, on_row_read);
    }
  }
}

void RaidController::issue_row_writes(const std::shared_ptr<Transaction>& txn,
                                      const RowWritePlan& row) {
  stats_.child_writes += row.writes_end - row.writes_begin;
  for (std::size_t i = row.writes_begin; i < row.writes_end; ++i) {
    const auto& extent = txn->plan.writes[i];
    issue_child(extent.disk, extent.sector, extent.bytes, OpType::kWrite,
                txn);
  }
}

void RaidController::issue_child(std::size_t disk, Sector sector, Bytes bytes,
                                 OpType op,
                                 const std::shared_ptr<Transaction>& txn) {
  IoRequest child{next_child_id_++, sector, bytes, op};
  disks_[disk]->submit(child,
                       [this, txn](const IoCompletion&) { child_done(txn); });
}

void RaidController::child_done(const std::shared_ptr<Transaction>& txn) {
  if (--txn->pending == 0) {
    const Seconds finish = sim_.now();
    outstanding_ -= txn->members.size();
    for (auto& member : txn->members) {
      IoCompletion completion{member.request.id, member.submit_time, finish,
                              member.request.bytes, member.request.op};
      member.done(completion);
    }
  }
}

}  // namespace tracer::storage
