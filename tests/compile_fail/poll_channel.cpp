// Must not compile: Channel's non-blocking pop is private, so code outside
// the channel cannot build a polling loop on it; it blocks on pop().
#include "sim/channel.hpp"

bool poll_once(snacc::sim::Channel<int>& ch) {
  return ch.try_pop().has_value();
}
