// Must not compile: an `auto` function relaying a task, dropped (no
// declared Task return type anywhere at the call site).
#include "sim/task.hpp"

snacc::sim::Task job();

auto relay() { return job(); }

void fire_and_forget() {
  relay();
}
