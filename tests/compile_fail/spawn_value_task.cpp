// Must not compile: Simulator::spawn takes only `void` tasks -- a detached
// frame has no one to hand a result to.
#include "sim/task.hpp"

snacc::sim::TaskOf<bool> write_record();

void detach(snacc::sim::Simulator& sim) {
  sim.spawn(write_record());
}
