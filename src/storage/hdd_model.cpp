#include "storage/hdd_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "storage/mech_batch.h"

namespace tracer::storage {

HddModel::HddModel(sim::Simulator& sim, const HddParams& params,
                   std::uint64_t seed)
    : BlockDevice(sim),
      params_(params),
      rng_(seed),
      timeline_(params.idle_watts) {
  if (params_.cylinders == 0 || params_.capacity == 0) {
    throw std::invalid_argument("HddModel: capacity and cylinders must be > 0");
  }
  geom_ = derive_hdd_geometry(params_);
}

std::uint64_t HddModel::cylinder_of(Sector sector) const {
  return hdd_cylinder_of(params_, geom_, sector);
}

void HddModel::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("HddModel: zero-byte request");
  }
  queue_.push_back(Pending{request, std::move(done), sim_.now()});
  last_activity_ = sim_.now();
  if (power_state_ == PowerState::kStandby) {
    spin_up();  // I/O arrival wakes a spun-down drive
    return;
  }
  if (power_state_ == PowerState::kActive && !busy_) start_next();
}

bool HddModel::spin_down() {
  if (power_state_ != PowerState::kActive || busy_ || !queue_.empty()) {
    return false;
  }
  power_state_ = PowerState::kStandby;
  timeline_.set_base(sim_.now(), params_.standby_watts);
  return true;
}

void HddModel::spin_up() {
  if (power_state_ != PowerState::kStandby) return;
  power_state_ = PowerState::kSpinningUp;
  ++spin_ups_;
  const std::uint64_t epoch = ++spin_up_epoch_;
  const Seconds t0 = sim_.now();
  // The base must rise to idle_watts for the whole kSpinningUp window; the
  // surge pulse is *additive*, so leaving the base at standby_watts would
  // under-count every wake-up by (idle - standby) x spin_up_time joules.
  // Pinned by PowerPolicyTest.WakeCycleEnergyExactJoules.
  timeline_.set_base(t0, params_.idle_watts);
  timeline_.add_pulse(t0, t0 + params_.spin_up_time,
                      params_.spin_up_extra_watts);
  sim_.schedule_in(params_.spin_up_time, [this, epoch] {
    if (epoch != spin_up_epoch_ ||
        power_state_ != PowerState::kSpinningUp) {
      return;
    }
    power_state_ = PowerState::kActive;
    if (!busy_) start_next();
  });
}

std::deque<HddModel::Pending>::iterator HddModel::pick_next() {
  if (params_.discipline == HddParams::Discipline::kFifo ||
      queue_.size() == 1) {
    return queue_.begin();
  }
  // LOOK: among queued requests, pick the one whose cylinder is closest to
  // the head in the current sweep direction; fall back to nearest overall.
  auto best = queue_.begin();
  std::uint64_t best_distance = ~0ULL;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const std::uint64_t cyl = cylinder_of(it->request.sector);
    const std::uint64_t distance = cyl > mech_.head_cylinder
                                       ? cyl - mech_.head_cylinder
                                       : mech_.head_cylinder - cyl;
    if (distance < best_distance) {
      best_distance = distance;
      best = it;
    }
  }
  return best;
}

void HddModel::start_next() {
  if (queue_.empty() || power_state_ != PowerState::kActive) return;
  busy_ = true;

  auto it = pick_next();
  Pending pending = std::move(*it);
  queue_.erase(it);

  const IoRequest& req = pending.request;
  const Seconds t0 = sim_.now();
  const HddServicePlan plan =
      hdd_plan_service(params_, geom_, mech_, rng_, req.sector, req.bytes);

  hdd_add_service_pulses(params_, timeline_, t0, plan.seek, plan.rotation,
                         plan.transfer, req.op == OpType::kWrite);

  if (plan.sequential) ++sequential_hits_;
  busy_time_ += plan.service;

  const Seconds finish = t0 + plan.service;
  sim_.schedule_at(
      finish, [this, pending = std::move(pending), finish]() mutable {
        ++completed_;
        busy_ = false;
        last_activity_ = sim_.now();
        IoCompletion completion{pending.request.id, pending.submit_time,
                                finish, pending.request.bytes,
                                pending.request.op};
        // Start the next request before invoking the callback so a callback
        // that submits more I/O sees a live queue, not an idle disk.
        start_next();
        pending.done(completion);
      });
}

}  // namespace tracer::storage
