// Discrete-event core of the flat replay kernel (DESIGN.md §6g).
//
// Where sim::Simulator stores a heap of closures, FlatSimulator keeps one
// binary heap of 24-byte POD events — a (time, seq) key plus a
// caller-defined (kind, a, b) payload — so scheduling never allocates,
// never constructs a closure, and popping is a switch in the caller's run
// loop instead of an indirect call through a type-erased callable.
//
// Determinism contract: `seq` is a monotone counter assigned at schedule()
// time, exactly like Simulator's FIFO tie-break, and pop() returns the
// minimum (time, seq). Replaying the same schedule() sequence through
// either simulator therefore dispatches the identical event order, which
// is what makes the flat kernel's metrics bit-identical to the classic
// kernel's (tests/test_flat_replay.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace tracer::sim {

/// One scheduled event. `kind`/`a`/`b` are opaque to the simulator; the
/// owner's run loop interprets them (the replay kernel: kind = event type,
/// a = disk index, b = operation slot).
struct FlatEvent {
  Seconds time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

class FlatSimulator {
 public:
  FlatSimulator() = default;
  FlatSimulator(const FlatSimulator&) = delete;
  FlatSimulator& operator=(const FlatSimulator&) = delete;

  /// Current simulation time (time of the last popped event).
  Seconds now() const { return now_; }

  /// Schedule an event at absolute time `at` (clamped to now(), counting
  /// the clamp like Simulator::schedule_at does). Inline: this is the
  /// replay kernel's innermost loop and the call must fuse into it.
  void schedule(Seconds at, std::uint32_t kind, std::uint32_t a = 0,
                std::uint64_t b = 0) {
    if (at < now_) ++late_schedules_;
    heap_.push_back(FlatEvent{std::max(at, now_), next_seq_++, kind, a, b});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pop the earliest event into `out`, advancing the clock. Returns false
  /// when the queue is empty.
  bool pop(FlatEvent& out) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    out = heap_.back();
    heap_.pop_back();
    now_ = out.time;
    ++dispatched_;
    return true;
  }

  /// Pre-size the queue so steady-state scheduling never reallocates.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Queue capacity (regression tests assert this is stable across a
  /// replay after reserve()).
  std::size_t capacity() const { return heap_.capacity(); }

  /// Total events popped over the simulator's lifetime.
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// schedule() calls that asked for a time already in the past and were
  /// clamped to now() — same silent-drift tripwire as
  /// Simulator::late_schedule_count().
  std::uint64_t late_schedule_count() const { return late_schedules_; }

 private:
  // Min-heap ordering on (time, seq), identical to Simulator::Later.
  struct Later {
    bool operator()(const FlatEvent& x, const FlatEvent& y) const {
      if (x.time != y.time) return x.time > y.time;
      return x.seq > y.seq;
    }
  };

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t late_schedules_ = 0;
  std::vector<FlatEvent> heap_;  ///< binary min-heap (Later comparator)
};

}  // namespace tracer::sim
