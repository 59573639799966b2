// Test helper: a timed action is a task that sleeps until its time. Spawn
// it (`sim.spawn(run_at(&sim, ns(5), [&] { ... }))`); that costs one start
// event plus one timer event.
#pragma once

#include <functional>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::sim {

/// Runs `fn` at absolute simulated time `t` (immediately if `t` has passed).
inline Task run_at(Domain* sim, TimePs t, std::function<void()> fn) {
  co_await sim->delay_until(t);
  fn();
}

}  // namespace snacc::sim
