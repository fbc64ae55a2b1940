// RAID controller: fans one logical request out to member-disk operations.
//
// Dispatch pipeline: requests arriving while the controller is within its
// dispatch window are batched; at dispatch, contiguous same-direction
// requests in the batch are merged (the block-layer elevator every real
// deployment replays through does exactly this, independent of the
// disabled write cache), capped at one full stripe width. Merging is what
// lets queued sequential small writes approach streaming rates instead of
// paying a read-modify-write per request.
//
// Reads touch only the mapped data extents. RAID-5 writes follow the two
// classic paths, which drive the paper's Fig 11 U-shape:
//   * full-stripe writes — the (merged) request covers every data unit of a
//     row, so parity is computed in-core and the row costs data+parity
//     writes only;
//   * read-modify-write — partial rows first read old data + old parity,
//     then write new data + new parity (the small-write penalty).
// The per-row plan, degraded variants included, is plan_raid5_write
// (storage/raid.h), which the flat replay kernel executes too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/block_device.h"
#include "storage/raid.h"

namespace tracer::storage {

struct RaidControllerStats {
  std::uint64_t logical_reads = 0;
  std::uint64_t logical_writes = 0;
  std::uint64_t merged_batches = 0;  ///< merged ops covering >1 request
  std::uint64_t child_reads = 0;
  std::uint64_t child_writes = 0;
  std::uint64_t full_stripe_writes = 0;  ///< rows written without RMW
  std::uint64_t rmw_rows = 0;            ///< rows that paid read-modify-write
  std::uint64_t reconstructed_reads = 0; ///< degraded-mode rebuilt extents
};

class RaidController final : public BlockDevice {
 public:
  /// `disks` are borrowed; they must outlive the controller and share `sim`.
  /// `dispatch_overhead` is both the per-batch controller latency and the
  /// batching window for merges.
  RaidController(sim::Simulator& sim, RaidGeometry geometry,
                 std::vector<BlockDevice*> disks,
                 Seconds dispatch_overhead = 0.05e-3);

  // BlockDevice
  Bytes capacity() const override { return geometry_.capacity(); }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override { return outstanding_; }
  /// One dispatch timer, one degenerate-completion event, plus every
  /// member's own worst case.
  std::size_t max_concurrent_events() const override {
    std::size_t total = 2;
    for (const auto* disk : disks_) total += disk->max_concurrent_events();
    return total;
  }

  // PowerSource (aggregates member disks; enclosure power lives in
  // DiskArray).
  std::string name() const override { return "raid-controller"; }
  Watts power_at(Seconds t) const override;
  Joules energy_until(Seconds t) override;

  const RaidGeometry& geometry() const { return geometry_; }
  const RaidControllerStats& stats() const { return stats_; }

  // ---- Degraded mode (RAID-5 only) ----
  // Reads addressed to a failed member reconstruct from the surviving
  // data + parity of the row; writes skip the failed member (updating
  // parity so the data stays recoverable). At most one failure is
  // tolerated, like any single-parity array.

  /// Mark a member failed. Throws when another disk is already failed
  /// (double fault = data loss) or the level is not RAID-5.
  void fail_disk(std::size_t disk);

  /// Bring a member back (after a simulated rebuild).
  void restore_disk(std::size_t disk);

  bool degraded() const { return failed_disk_ >= 0; }
  std::ptrdiff_t failed_disk() const { return failed_disk_; }

  /// Direct member access (rebuild engine, diagnostics).
  std::size_t member_count() const { return disks_.size(); }
  BlockDevice& member(std::size_t disk) { return *disks_.at(disk); }

 private:
  struct Waiting {
    IoRequest request;
    CompletionCallback done;
    Seconds submit_time;
  };
  struct Transaction;  // one merged op in flight

  void dispatch_batch();
  void execute(std::vector<Waiting> members);
  void issue_read(const std::shared_ptr<Transaction>& txn);
  void issue_write(const std::shared_ptr<Transaction>& txn);
  void issue_row_writes(const std::shared_ptr<Transaction>& txn,
                        const RowWritePlan& row);
  void issue_child(std::size_t disk, Sector sector, Bytes bytes, OpType op,
                   const std::shared_ptr<Transaction>& txn);
  void child_done(const std::shared_ptr<Transaction>& txn);

  RaidGeometry geometry_;
  std::vector<BlockDevice*> disks_;
  Seconds dispatch_overhead_;
  Bytes max_merge_bytes_;
  std::vector<Waiting> batch_;
  bool dispatch_scheduled_ = false;
  std::uint64_t next_child_id_ = 1;
  std::size_t outstanding_ = 0;
  std::ptrdiff_t failed_disk_ = -1;
  RaidControllerStats stats_;
};

}  // namespace tracer::storage
