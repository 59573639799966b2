// Bounded FIFO channel with coroutine push/pop -- the backbone of all
// stream plumbing (AXI4-Stream links, queue hand-off, pipeline stages).
//
// Backpressure: push suspends while the channel is full, pop suspends while
// it is empty. Hand-offs between a waiting producer and consumer go through
// the event queue (zero-delay events), never by direct reentrant resumption,
// which keeps causality and stack depth bounded.
//
// IMPLEMENTATION NOTE (allocation-free awaiters and the g++ 12 caveat):
// waiters are an intrusive singly-linked FIFO list whose nodes live inside
// the awaiter objects (i.e. in the suspended coroutine's frame); values in
// flight live in channel-owned rings (sim/ring.hpp):
//
//   items_          values queued and not yet spoken for;
//   claimed_        values handed to a woken-but-not-yet-resumed consumer
//                   (the consumer pops its claim in await_resume);
//   pending_pushes_ values of producers parked on a full channel, FIFO-
//                   aligned with the producer waiter list.
//
// Keeping every value channel-owned has two payoffs. First, teardown
// safety: if the simulation ends while a producer/consumer is parked,
// ~Simulator destroys the frame -- the value is in a ring, not the frame,
// so nothing leaks. Second, awaiters carry only trivially-destructible
// state (an EventNode, a link pointer, flags). That sidesteps a g++ 12 bug
// where an awaiter returned by value from `f()` in `co_await f()` is
// duplicated bitwise and destroyed twice, corrupting any non-trivial member
// (see tests/sim_test.cpp:SharedOwnershipSurvivesHandoff); with trivially-
// destructible awaiters the spurious destroy is a no-op, and all address
// registration happens in await_suspend, after the object has reached its
// final frame slot.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <limits>
#include <optional>
#include <utility>

#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace snacc::sim {

template <class T>
class Channel {
 public:
  Channel(Simulator& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty(); }
  bool full() const { return items_.size() >= capacity_; }
  bool closed() const { return closed_; }

  /// Closes the channel: further pushes are forbidden; pops drain remaining
  /// items and then return std::nullopt. Waiting consumers wake up, and
  /// producers parked in a full-channel push() wake up with a failed-push
  /// result (their undelivered values are dropped).
  void close() {
    closed_ = true;
    while (PopWaiter* w = pop_waiters_.pop_front()) sim_->wake(w->ev);
    while (PushWaiter* w = push_waiters_.pop_front()) sim_->wake(w->ev);
    pending_pushes_.clear();
  }

  /// co_await ch.push(v) -- true when the value was accepted; false when
  /// the channel was (or became) closed. Pushing on a closed channel is a
  /// programming error (asserts in debug builds) but is surfaced rather
  /// than parking the producer forever in release builds.
  auto push(T value) {
    struct Awaiter {
      Channel* ch;
      PushWaiter node;
      bool done;  // resolved synchronously; `ok` holds the result
      bool ok;
      bool await_ready() const noexcept { return done; }
      void await_suspend(std::coroutine_handle<> h) {
        node.ev.h = h;
        ch->push_waiters_.push_back(&node);
      }
      bool await_resume() const noexcept { return done ? ok : node.admitted; }
    };
    assert(!closed_);
    if (closed_) return Awaiter{this, {}, true, false};
    if (try_push(value)) return Awaiter{this, {}, true, true};
    // Park: the value joins the channel-owned pending ring, FIFO-aligned
    // with this producer's waiter node (linked in await_suspend; nothing
    // can run in between inside the same co_await expression).
    pending_pushes_.push_back(std::move(value));
    return Awaiter{this, {}, false, false};
  }

  /// co_await ch.pop() -- returns std::nullopt only if closed and drained.
  auto pop() {
    struct Awaiter {
      Channel* ch;
      PopWaiter node;
      bool await_ready() const noexcept {
        return !ch->items_.empty() || ch->closed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        node.ev.h = h;
        ch->pop_waiters_.push_back(&node);
      }
      std::optional<T> await_resume() {
        if (node.delivered) return std::optional<T>(ch->claimed_.pop_front());
        // Ready fast path, or woken by close: drain leftovers first.
        return ch->try_pop();
      }
    };
    return Awaiter{this, {}};
  }

 private:
  // The non-blocking halves of push() and pop() are private, so no caller
  // can build a polling loop on them: outside code blocks on the awaiters.

  /// Returns false when there is no room; the value is consumed only on
  /// success, so push() can park the same object.
  [[nodiscard]] bool try_push(T& value) {
    if (PopWaiter* w = pop_waiters_.pop_front()) {
      // Direct hand-off: the value parks in the claimed ring and the woken
      // consumer pops it in await_resume -- a later pop() cannot steal it.
      claimed_.push_back(std::move(value));
      w->delivered = true;
      sim_->wake(w->ev);
      return true;
    }
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    return true;
  }

  [[nodiscard]] std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> v(items_.pop_front());
    admit_pushers();
    return v;
  }

  using PopWaiter = detail::PopWaiter;
  using PushWaiter = detail::PushWaiter;

  void admit_pushers() {
    // Move pending producers' values into freed ring space, FIFO; each
    // admitted producer wakes through the event queue.
    while (!push_waiters_.empty() && items_.size() < capacity_) {
      items_.push_back(pending_pushes_.pop_front());
      PushWaiter* w = push_waiters_.pop_front();
      w->admitted = true;
      sim_->wake(w->ev);
    }
  }

  Simulator* sim_;
  std::size_t capacity_;
  RingBuf<T> items_;
  RingBuf<T> claimed_;
  RingBuf<T> pending_pushes_;
  detail::WaitList<PopWaiter> pop_waiters_;
  detail::WaitList<PushWaiter> push_waiters_;
  bool closed_ = false;
};

}  // namespace snacc::sim
