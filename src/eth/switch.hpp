// Two-port store-and-forward Ethernet switch with 802.3x pause propagation
// (Sec. 4.7: "This protocol also works with intermediary switches, which
// will first pause locally before propagating the pause request further").
//
// Each direction has a bounded buffer: a pause from the egress side stops
// the switch's own transmitter first; once the internal buffer crosses its
// watermark, the switch emits pause toward the original sender.
#pragma once

#include <memory>

#include "eth/mac.hpp"

namespace snacc::eth {

class Switch {
 public:
  /// Wires: a_in/a_out face endpoint A; b_in/b_out face endpoint B.
  Switch(sim::Simulator& sim, const EthProfile& profile, Wire& a_in,
         Wire& a_out, Wire& b_in, Wire& b_out)
      : port_a_(sim, profile, a_out, a_in, "switch-port-a"),
        port_b_(sim, profile, b_out, b_in, "switch-port-b"),
        sim_(sim) {}

  void start() {
    port_a_.start();
    port_b_.start();
    sim_.spawn(forward(port_a_, port_b_));
    sim_.spawn(forward(port_b_, port_a_));
  }

 private:
  sim::Task forward(Mac& from, Mac& to) {
    while (true) {
      std::optional<Frame> frame;
      co_await from.recv_accounted(&frame);
      if (!frame) co_return;
      co_await to.send(std::move(*frame));
    }
  }

  Mac port_a_;
  Mac port_b_;
  sim::Simulator& sim_;
};

}  // namespace snacc::eth
