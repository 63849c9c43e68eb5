#ifndef GTPL_SIM_SIMULATOR_H_
#define GTPL_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/types.h"
#include "sim/callback_slab.h"
#include "sim/event_queue.h"

namespace gtpl::sim {

/// Discrete-event simulator with an integer clock.
///
/// The paper advances its clock with the unit-time approach; an event
/// calendar over integer ticks is semantically identical (every state change
/// happens at an integer time) but skips idle ticks. Determinism: same
/// schedule calls => same execution; same-tick events fire in scheduling
/// order.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `action` to run `delay` ticks from now. delay >= 0; a zero
  /// delay runs after all currently pending same-tick events.
  void Schedule(SimTime delay, std::function<void()> action);

  /// Schedule for a closure: packs it with PackClosure (into this
  /// simulator's slab when it is too large for std::function's inline
  /// buffer) and hands it to the std::function overload above, which every
  /// event still passes through.
  template <typename F, typename = std::enable_if_t<kIsClosure<F>>>
  void Schedule(SimTime delay, F&& action) {
    Schedule(delay, PackClosure(slab_, std::forward<F>(action)));
  }

  /// Schedules `action` at absolute time `when` (>= Now()).
  void ScheduleAt(SimTime when, std::function<void()> action);

  /// Runs events until the queue drains, `until` is passed (if >= 0), or
  /// Stop() is called. Events stamped exactly `until` still run. Returns the
  /// number of events executed by this call.
  uint64_t Run(SimTime until = -1);

  /// Executes exactly one event under the same contract as Run(): returns
  /// false without running anything if the queue is empty, the earliest
  /// event lies past `until` (when >= 0), or a previously stepped event
  /// called Stop() (Run() resets the stop flag; Step() never does, so a
  /// stop sticks across Step() calls until the next Run()). Enforces the
  /// same time-monotonicity check as Run().
  bool Step(SimTime until = -1);

  /// Makes the current Run() call return after the in-flight event finishes.
  void Stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

  size_t pending_events() const { return queue_.size(); }

  /// Holds the closures of pending events and in-flight messages; see
  /// CallbackSlab.
  CallbackSlab& callback_slab() { return slab_; }

 private:
  // Declared before the queue, so the queue's std::functions (which may
  // hold slab handles) are destroyed first.
  CallbackSlab slab_;
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
};

}  // namespace gtpl::sim

#endif  // GTPL_SIM_SIMULATOR_H_
