// Must not compile: a dropped sim::Future loses the only handle to a
// completion.
#include "sim/future.hpp"

snacc::sim::Future<int> completion();

void fire_and_forget() {
  completion();
}
