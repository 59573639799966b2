#include "eth/mac.hpp"

namespace snacc::eth {

sim::Task Wire::transmit(Frame frame) {
  // Serialization occupies the wire; propagation pipelines (the next frame
  // starts clocking out while this one is still in flight). Deliveries stay
  // ordered: the event queue is FIFO at equal delays and channel pushes
  // queue in arrival order.
  co_await server_.acquire(frame.wire_bytes());
  if (mailbox_) {
    // Domain boundary: the mailbox stamps arrival at now + latency, the
    // same schedule deliver() would produce. Push only parks when 64
    // frames are already in flight -- a wire-full condition the same-domain
    // path cannot hit either (its delivery channel has the same bound).
    co_await mailbox_->push(std::move(frame));
  } else {
    sim_.spawn(deliver(std::move(frame)));
  }
}

sim::Task Wire::deliver(Frame frame) {
  co_await sim_.delay(latency_);
  co_await frames_.push(std::move(frame));
}

sim::Task Wire::pump() {
  // Receiver-domain side of a cross-domain wire: surface mailbox arrivals
  // on the ordinary delivered() channel so Mac never knows the difference.
  while (auto f = co_await mailbox_->pop()) {
    co_await frames_.push(std::move(*f));
  }
  frames_.close();
}

Mac::Mac(sim::Simulator& sim, const EthProfile& profile, Wire& out, Wire& in,
         const char* name)
    : sim_(sim),
      profile_(profile),
      out_(out),
      in_(in),
      name_(name),
      tx_fifo_(sim, 32),
      rx_fifo_(sim, sim::Channel<Frame>::kUnbounded),
      tx_allowed_(sim, /*open=*/true) {}

void Mac::start() {
  sim_.spawn(tx_loop());
  sim_.spawn(rx_loop());
}

sim::Task Mac::tx_loop() {
  while (true) {
    auto frame = co_await tx_fifo_.pop();
    if (!frame) co_return;
    // Frames are fully buffered before transmission; the pause state is
    // sampled at frame boundaries (a started frame cannot be paused).
    while (!tx_allowed_.is_open()) co_await tx_allowed_.opened();
    ++frames_sent_;
    co_await out_.transmit(std::move(*frame));
  }
}

sim::Task Mac::rx_loop() {
  while (true) {
    auto frame = co_await in_.delivered().pop();
    if (!frame) co_return;
    if (frame->is_pause) {
      ++pauses_received_;
      if (frame->pause_quanta == 0) {
        tx_allowed_.open();  // XON
      } else {
        tx_allowed_.close();  // XOFF until released
      }
      continue;
    }
    rx_fifo_bytes_ += frame->payload.size();
    update_pause_state();
    co_await rx_fifo_.push(std::move(*frame));
  }
}

sim::Task Mac::recv_accounted(std::optional<Frame>* out) {
  auto frame = co_await rx_fifo_.pop();
  if (frame) {
    rx_fifo_bytes_ -= frame->payload.size();
    update_pause_state();
  }
  *out = std::move(frame);
}

void Mac::update_pause_state() {
  if (!pause_asserted_ && rx_fifo_bytes_ >= profile_.pause_on_threshold) {
    pause_asserted_ = true;
    ++pauses_sent_;
    sim_.trace(sim::TraceCat::kEth, "pause-on", rx_fifo_bytes_);
    // Pause frames preempt data in the MAC; they ride the reverse wire.
    sim_.spawn(out_.transmit(Frame::pause(0xFFFF)));
  } else if (pause_asserted_ && rx_fifo_bytes_ <= profile_.pause_off_threshold) {
    pause_asserted_ = false;
    ++pauses_sent_;
    sim_.trace(sim::TraceCat::kEth, "pause-off", rx_fifo_bytes_);
    sim_.spawn(out_.transmit(Frame::pause(0)));
  }
}

}  // namespace snacc::eth
