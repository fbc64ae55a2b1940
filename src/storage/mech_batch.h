// Shared service-time mechanics for the disk models — the single source of
// truth for HDD seek/rotation/transfer arithmetic, SSD channel/latency
// math and the power pulses a service draws, extracted from
// HddModel/SsdModel so the flat replay kernel can precompute service plans
// in batches while staying bit-identical to the per-request models.
//
// Key property exploited by the batch planners: with a FIFO discipline the
// *duration* of a request's service depends only on the order of requests
// on the disk (head position, sequential detection, the per-disk RNG
// sequence), never on the absolute time service starts. So plans for every
// queued request can be computed ahead of time, in SoA batches, and
// applied later at the legacy-faithful service-start moments.
// The plan functions below consume the mech state and RNG in exactly the
// order HddModel::start_next / SsdModel::start would, so the resulting
// doubles are the same bits either way.
#pragma once

#include <cstddef>
#include <cstdint>

#include "power/power_timeline.h"
#include "storage/hdd_model.h"
#include "storage/mech_types.h"
#include "storage/ssd_model.h"
#include "util/rng.h"
#include "util/types.h"

namespace tracer::storage {

// ---------------------------------------------------------------------------
// HDD mechanics
// ---------------------------------------------------------------------------

/// Exactly the derivation HddModel's constructor performs.
HddMechGeometry derive_hdd_geometry(const HddParams& params);

std::uint64_t hdd_cylinder_of(const HddParams& params,
                              const HddMechGeometry& geom, Sector sector);

double hdd_media_rate_bytes_per_sec(const HddParams& params,
                                    std::uint64_t cyl);

Seconds hdd_seek_time(const HddParams& params, const HddMechGeometry& geom,
                      std::uint64_t from_cyl, std::uint64_t to_cyl,
                      bool sequential);

/// Plan one request and advance the mech state + RNG, with the exact
/// computation order of HddModel::start_next (the RNG is drawn only for
/// non-sequential requests, after the sequential test).
HddServicePlan hdd_plan_service(const HddParams& params,
                                const HddMechGeometry& geom,
                                HddMechState& state, util::Rng& rng,
                                Sector sector, Bytes bytes);

/// Batch planner: plan `count` FIFO-ordered requests in one pass over SoA
/// inputs. Equivalent to calling hdd_plan_service per element — same state
/// evolution, same RNG consumption — but branch-light and cache-friendly
/// for the flat kernel's staging arrays.
void hdd_plan_batch(const HddParams& params, const HddMechGeometry& geom,
                    HddMechState& state, util::Rng& rng,
                    const Sector* sectors, const Bytes* bytes,
                    std::size_t count, HddServicePlan* out);

/// Draw the power of one HDD service starting at `t0` on `timeline`: the
/// voice coil during the seek, the head/channel (plus the write driver for
/// writes) during the transfer. `seek`/`rotation`/`transfer` come from the
/// request's HddServicePlan.
void hdd_add_service_pulses(const HddParams& params,
                            power::PowerTimeline& timeline, Seconds t0,
                            Seconds seek, Seconds rotation, Seconds transfer,
                            bool write);

// ---------------------------------------------------------------------------
// SSD mechanics
// ---------------------------------------------------------------------------

/// Channels a request stripes across (SsdModel::channels_for).
std::size_t ssd_channels_for(const SsdParams& params, Bytes bytes);

/// Plan one request and advance the mech state, with the exact computation
/// order of SsdModel::start (no RNG in the SSD service path).
SsdServicePlan ssd_plan_service(const SsdParams& params, SsdMechState& state,
                                Sector sector, Bytes bytes, OpType op);

/// Batch planner over SoA inputs; ops packed as 0 = read, 1 = write.
void ssd_plan_batch(const SsdParams& params, SsdMechState& state,
                    const Sector* sectors, const Bytes* bytes,
                    const std::uint8_t* ops, std::size_t count,
                    SsdServicePlan* out);

/// Draw the power of one SSD service starting at `t0` and lasting
/// `service` on `timeline`: active power scales with the share of channels
/// the request occupies.
void ssd_add_service_pulse(const SsdParams& params,
                           power::PowerTimeline& timeline, Seconds t0,
                           Seconds service, std::size_t used_channels,
                           bool write);

}  // namespace tracer::storage
