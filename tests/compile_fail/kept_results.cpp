// Must compile under -Werror=unused-result: every way of keeping a task
// that the drop_* probes drop.
#include "sim/task.hpp"

namespace probe {

using snacc::sim::Simulator;
using snacc::sim::Task;
using snacc::sim::TaskOf;

Task job();
Task post();
TaskOf<bool> check();
void amb(int cookie);
Task amb();

auto relay() { return job(); }

Task kept(Simulator& sim) {
  co_await job();                       // awaited
  auto held = job();                    // stored
  co_await held;
  (void)post();                         // compiles, but never runs: lazy
  sim.spawn(job());                     // handed to an owner
  amb(7);                               // the sync overload of a mixed name
  auto pump = []() -> Task { co_return; };
  co_await pump();                      // bound lambda, awaited
  co_await relay();                     // auto relay, awaited
  const bool ok = co_await check();     // value result, bound
  (void)ok;
}

}  // namespace probe
