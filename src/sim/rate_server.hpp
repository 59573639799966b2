// RateServer: fluid-model FIFO bandwidth server.
//
// Models a shared serial resource (a PCIe link direction, a DRAM channel,
// an Ethernet wire, a NAND program pipe): each acquisition occupies the
// server for `per_op + bytes/rate`, requests are served in call order, and
// the awaiting coroutine resumes when its occupation ends. This collapses
// per-beat cycle simulation into O(1) events per transaction while
// preserving aggregate bandwidth and queueing delay.
//
// Suspended acquisitions wait in an intrusive FIFO threaded through their
// awaiters, and only the oldest is in the domain's event heap. Each waiter
// reserves its tie-break sequence number when it suspends; when it resumes
// it links its successor under the successor's own reserved key. A server's
// completions already come in (time, seq) order -- FIFO start, finish times
// that never decrease, sequence numbers that rise -- so the heap pops the
// same events in the same order as if every waiter were in it, while it
// holds one entry per busy server instead of one per queued transfer.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <type_traits>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace snacc::sim {

class RateServer {
 public:
  /// `gb_s` is decimal GB/s; `per_op` a fixed per-acquisition overhead.
  RateServer(Simulator& sim, double gb_s, TimePs per_op = TimePs{})
      : sim_(&sim), gb_s_(gb_s), per_op_(per_op) {}
  // Queued waiters point at their server, so it never moves.
  RateServer(const RateServer&) = delete;
  RateServer& operator=(const RateServer&) = delete;

  void set_rate(double gb_s) { gb_s_ = gb_s; }
  double rate() const { return gb_s_; }

  /// The awaiter of one acquisition; it lives in the awaiting frame. A grant
  /// that is due at once completes without suspending, takes no sequence
  /// number and never touches the queue; its node's handle stays null.
  struct Waiter {
    RateServer* server = nullptr;
    TimePs wake;
    std::uint64_t seq = 0;
    Waiter* next = nullptr;
    EventNode node{};

    bool await_ready() const noexcept { return wake <= server->sim_->now(); }
    void await_suspend(std::coroutine_handle<> h) {
      Simulator& sim = *server->sim_;
      seq = sim.reserve_seq();
      node.h = h;
      if (Waiter* tail = server->tail_) {
        assert(tail->wake <= wake && "acquire() awaited out of call order");
        tail->next = this;
      } else {
        sim.schedule(node, wake, seq);
      }
      server->tail_ = this;
    }
    void await_resume() {
      if (!node.h) return;
      if (next) server->sim_->schedule(next->node, next->wake, next->seq);
      else server->tail_ = nullptr;
    }
  };

  /// Awaitable: completes when the server has finished serializing `bytes`.
  /// The occupation window is computed eagerly, so FIFO order is the *call*
  /// order and the result must be awaited at once -- one intrusive event per
  /// acquisition, no allocation. A zero-byte acquire still occupies `per_op`
  /// (+ `extra`): command-only traffic serializes like everything else.
  /// set_rate() applies to subsequent acquisitions only; in-flight
  /// occupations keep their computed windows.
  [[nodiscard]] Waiter acquire(std::uint64_t bytes, TimePs extra = TimePs{}) {
    const TimePs start = std::max(sim_->now(), next_free_);
    const TimePs occupy = per_op_ + transfer_time(bytes, gb_s_) + extra;
    next_free_ = start + occupy;
    total_bytes_ += bytes;
    ++total_ops_;
    busy_time_ += occupy;
    return Waiter{this, next_free_};
  }
  [[nodiscard]] Waiter acquire(Bytes bytes, TimePs extra = TimePs{}) {
    return acquire(bytes.value(), extra);
  }

  /// Time at which the server becomes idle (for utilization probes).
  TimePs busy_until() const { return next_free_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t total_ops() const { return total_ops_; }
  TimePs busy_time() const { return busy_time_; }

  /// Fraction of `elapsed` the server spent occupied (clamped to 1.0 --
  /// busy_time can exceed wall time transiently because occupations are
  /// charged eagerly at acquire()).
  double utilization(TimePs elapsed) const {
    if (elapsed.value() == 0) return 0.0;
    const double u = static_cast<double>(busy_time_.value()) /
                     static_cast<double>(elapsed.value());
    return u < 1.0 ? u : 1.0;
  }

 private:
  Simulator* sim_;
  double gb_s_;
  TimePs per_op_;
  TimePs next_free_;
  Waiter* tail_ = nullptr;  // newest suspended waiter; null when none
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_ops_ = 0;
  TimePs busy_time_;
};

// The waiter lives in every frame that awaits acquire(), and thousands of
// those are live at once, so its size shows in peak RSS: four words on top of
// the node.
static_assert(sizeof(RateServer::Waiter) == 32 + sizeof(EventNode));
static_assert(std::is_trivially_copyable_v<RateServer::Waiter>);

}  // namespace snacc::sim
