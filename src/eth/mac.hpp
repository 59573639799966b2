// 100 G Ethernet MAC pair with IEEE 802.3x flow control (Sec. 4.7).
//
// A Link is one full-duplex cable: two directed wires, each a rate server at
// line rate plus propagation delay. A Mac attaches to one end; its TX side
// fully buffers each frame before transmission (the paper: "Once the
// transmission of an Ethernet frame starts, it cannot be paused. Hence, we
// fully buffer the frames on the sender side") and honours pause state; its
// RX side enqueues data frames into a bounded FIFO and emits pause frames at
// the configured high/low watermarks -- the lossless backpressure the
// streaming pipeline relies on.
#pragma once

#include <cstdint>
#include <memory>

#include "common/calibration.hpp"
#include "eth/frame.hpp"
#include "sim/channel.hpp"
#include "sim/mailbox.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace snacc::eth {

/// One direction of the cable.
///
/// Both ends normally live in one event domain. The two-domain constructor
/// makes the wire a *domain boundary*: serialization happens in the sender's
/// domain, frames cross through a sim::Mailbox, and delivery lands in the
/// receiver's domain after the propagation delay. Ethernet wires are the
/// intended place to cut a topology into domains because their physical
/// latency is the conservative lookahead the cluster scheduler needs
/// (sim/cluster.hpp) -- lookahead() exposes it.
class Wire {
 public:
  Wire(sim::Simulator& sim, const EthProfile& profile)
      : sim_(sim),
        server_(sim, profile.line_gb_s),
        latency_(profile.wire_latency),
        frames_(sim, 64) {}

  /// Cross-domain wire: `tx` serializes, `rx` receives. The domains must
  /// belong to the same SimCluster; the wire latency becomes the edge's
  /// lookahead.
  Wire(sim::Domain& tx, sim::Domain& rx, const EthProfile& profile)
      : sim_(tx),
        server_(tx, profile.line_gb_s),
        latency_(profile.wire_latency),
        frames_(rx, 64),
        mailbox_(std::make_unique<sim::Mailbox<Frame>>(tx, rx, 64,
                                                       profile.wire_latency)) {
    rx.spawn(pump());
  }

  /// Transmits one frame: occupies the wire for its serialization time,
  /// then delivers after the propagation delay. Pause frames preempt the
  /// queue (they are generated by the MAC below frame granularity).
  sim::Task transmit(Frame frame);

  sim::Channel<Frame>& delivered() { return frames_; }

  /// Propagation delay == conservative lookahead when this wire spans two
  /// domains.
  TimePs lookahead() const { return latency_; }

 private:
  sim::Task deliver(Frame frame);
  sim::Task pump();

  sim::Simulator& sim_;  // the transmitting side's domain
  sim::RateServer server_;
  TimePs latency_;
  sim::Channel<Frame> frames_;  // receiving side's domain
  std::unique_ptr<sim::Mailbox<Frame>> mailbox_;  // cross-domain only
};

/// MAC endpoint: owns TX toward `out` wire and RX from `in` wire.
class Mac {
 public:
  Mac(sim::Simulator& sim, const EthProfile& profile, Wire& out, Wire& in,
      const char* name = "mac");

  void start();

  /// Application TX: queue a frame for transmission (suspends when the TX
  /// FIFO is full -- backpressure propagates to the producer).
  auto send(Frame frame) { return tx_fifo_.push(std::move(frame)); }
  void close_tx() { tx_fifo_.close(); }

  std::uint64_t rx_backlog_bytes() const { return rx_fifo_bytes_; }

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t pauses_sent() const { return pauses_sent_; }
  std::uint64_t pauses_received() const { return pauses_received_; }
  bool paused() const { return !tx_allowed_.is_open(); }

  /// Application RX: pops the next data frame (nullopt when shut down).
  /// Consumption is accounted against the pause watermarks, so slow
  /// consumers assert backpressure automatically.
  sim::Task recv_accounted(std::optional<Frame>* out);

 private:
  sim::Task tx_loop();
  sim::Task rx_loop();
  void update_pause_state();

  sim::Simulator& sim_;
  EthProfile profile_;
  Wire& out_;
  Wire& in_;
  const char* name_;

  sim::Channel<Frame> tx_fifo_;
  sim::Channel<Frame> rx_fifo_;
  std::uint64_t rx_fifo_bytes_ = 0;
  bool pause_asserted_ = false;

  sim::Gate tx_allowed_;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t pauses_sent_ = 0;
  std::uint64_t pauses_received_ = 0;
};

}  // namespace snacc::eth
