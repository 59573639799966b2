// Must not compile: a dropped sim::Task from a method call (here the
// value form: [[nodiscard]] sits on the TaskOf class template).
#include "sim/task.hpp"

struct Pump {
  snacc::sim::TaskOf<bool> run();
};

void fire_and_forget(Pump& pump) {
  pump.run();
}
