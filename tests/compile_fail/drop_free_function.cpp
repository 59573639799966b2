// Must not compile: a dropped sim::Task from a free function never runs
// (the lazy frame is destroyed unstarted).
#include "sim/task.hpp"

snacc::sim::Task job();

void fire_and_forget() {
  job();
}
