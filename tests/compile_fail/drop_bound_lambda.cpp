// Must not compile: a coroutine lambda bound to a name, called and
// dropped.
#include "sim/task.hpp"

void fire_and_forget() {
  auto pump = []() -> snacc::sim::Task { co_return; };
  pump();
}
