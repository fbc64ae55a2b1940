#include "storage/ssd_model.h"

#include <algorithm>
#include <stdexcept>

#include "storage/mech_batch.h"

namespace tracer::storage {

SsdModel::SsdModel(sim::Simulator& sim, const SsdParams& params,
                   std::uint64_t seed)
    : BlockDevice(sim),
      params_(params),
      rng_(seed),
      timeline_(params.idle_watts) {
  if (params_.channels == 0 || params_.capacity == 0 ||
      params_.internal_stripe == 0) {
    throw std::invalid_argument(
        "SsdModel: capacity, channels and stripe must be > 0");
  }
}

std::size_t SsdModel::channels_for(Bytes bytes) const {
  return ssd_channels_for(params_, bytes);
}

void SsdModel::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("SsdModel: zero-byte request");
  }
  queue_.push_back(Pending{request, std::move(done), sim_.now()});
  maybe_dispatch();
}

void SsdModel::maybe_dispatch() {
  // FIFO: head-of-line blocks until enough channels free. This keeps
  // completion order sane and models a single NCQ-style dispatch engine.
  while (!queue_.empty() &&
         channels_for(queue_.front().request.bytes) <=
             params_.channels - busy_channels_) {
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(pending));
  }
}

void SsdModel::start(Pending pending) {
  const IoRequest& req = pending.request;
  const SsdServicePlan plan =
      ssd_plan_service(params_, mech_, req.sector, req.bytes, req.op);
  const std::size_t used_channels = plan.used_channels;
  busy_channels_ += used_channels;
  ++active_requests_;

  const Seconds service = plan.service;
  const Seconds t0 = sim_.now();
  ssd_add_service_pulse(params_, timeline_, t0, service, used_channels,
                        req.op == OpType::kWrite);

  const Seconds finish = t0 + service;
  sim_.schedule_at(finish, [this, pending = std::move(pending), finish,
                            used_channels]() mutable {
    ++completed_;
    busy_channels_ -= used_channels;
    --active_requests_;
    IoCompletion completion{pending.request.id, pending.submit_time, finish,
                            pending.request.bytes, pending.request.op};
    maybe_dispatch();
    pending.done(completion);
  });
}

}  // namespace tracer::storage
