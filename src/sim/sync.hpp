// Wake-up primitives for processes that wait on each other: WaitGroup joins
// a group of spawned tasks, Gate is a level-triggered condition, Semaphore
// counts a bounded resource. A call/return is none of these -- it is a
// plain `co_await task()` (sim/task.hpp). A value that another process sets
// (a buffer fill landing, a polled NVMe completion) travels in a field the
// waiter can read, next to a Gate the setter opens (docs/MODEL.md, "Values
// set by another process").
//
// Waiters are an intrusive FIFO list whose links live inside the awaiter
// objects (i.e. in the awaiting coroutine's frame), so waiting allocates
// nothing; every waiter is resumed through the event queue, which keeps
// runs deterministic and free of reentrancy. Channel and Mailbox park
// their producers and consumers on the same list.
#pragma once

#include <cassert>
#include <coroutine>

#include "sim/simulator.hpp"

namespace snacc::sim {

namespace detail {

/// FIFO of waiter nodes with O(1) push/pop; `W` has a `W* next` link. Nodes
/// are owned by awaiter objects and unlinked exactly once, when woken. Wake
/// order == await order, which keeps equal-timestamp scheduling identical
/// to the pre-intrusive kernel.
template <class W>
struct WaitList {
  W* head = nullptr;
  W* tail = nullptr;
  bool empty() const { return head == nullptr; }
  void push_back(W* w) {
    w->next = nullptr;
    if (tail) tail->next = w;
    else head = w;
    tail = w;
  }
  W* pop_front() {
    W* w = head;
    if (w) {
      head = w->next;
      if (!head) tail = nullptr;
    }
    return w;
  }
};

/// Intrusive waiter link; lives in an awaiter object. The EventNode carries
/// the wakeup; `next` chains the FIFO.
struct WaitLink {
  EventNode ev{};
  WaitLink* next = nullptr;
};

/// A producer parked on a full Channel or Mailbox; `admitted` is the push
/// result it wakes with.
struct PushWaiter {
  EventNode ev{};
  PushWaiter* next = nullptr;
  bool admitted = false;
};

/// A consumer parked on an empty Channel or Mailbox; `delivered` means its
/// value waits in the claimed ring.
struct PopWaiter {
  EventNode ev{};
  PopWaiter* next = nullptr;
  bool delivered = false;
};

}  // namespace detail

/// Counts down to zero; used to join a group of spawned tasks.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(&sim) {}

  void add(int n = 1) { count_ += n; }
  void done() {
    assert(count_ > 0);
    if (--count_ == 0) {
      while (detail::WaitLink* w = waiters_.pop_front()) sim_->wake(w->ev);
    }
  }

  auto wait() {
    struct Awaiter {
      WaitGroup* wg;
      detail::WaitLink link;
      bool await_ready() const noexcept { return wg->count_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        link.ev.h = h;
        wg->waiters_.push_back(&link);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  int pending() const { return count_; }

 private:
  Simulator* sim_;
  int count_ = 0;
  detail::WaitList<detail::WaitLink> waiters_;
};

/// Level-triggered gate (e.g. Ethernet pause): tasks await `opened()`;
/// close() blocks subsequent awaits until open() releases them.
class Gate {
 public:
  explicit Gate(Simulator& sim, bool open = true) : sim_(&sim), open_(open) {}

  void open() {
    if (open_) return;
    open_ = true;
    while (detail::WaitLink* w = waiters_.pop_front()) sim_->wake(w->ev);
  }
  void close() { open_ = false; }
  bool is_open() const { return open_; }

  auto opened() {
    struct Awaiter {
      Gate* g;
      detail::WaitLink link;
      bool await_ready() const noexcept { return g->open_; }
      void await_suspend(std::coroutine_handle<> h) {
        link.ev.h = h;
        g->waiters_.push_back(&link);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

 private:
  Simulator* sim_;
  bool open_;
  detail::WaitList<detail::WaitLink> waiters_;
};

/// Counting semaphore for bounded resources (DMA tags, queue slots).
/// A permit is reserved at grant time -- either synchronously in
/// await_ready or by release() before waking a waiter -- so a freshly
/// released permit can never be stolen from a woken waiter.
class Semaphore {
 public:
  Semaphore(Simulator& sim, int permits) : sim_(&sim), permits_(permits) {}

  auto acquire() {
    struct Awaiter {
      Semaphore* s;
      detail::WaitLink link;
      bool await_ready() const noexcept { return s->permits_ > 0; }
      void await_suspend(std::coroutine_handle<> h) {
        link.ev.h = h;
        s->waiters_.push_back(&link);
      }
      void await_resume() const {
        // Either taken here (fast path) or pre-reserved by release().
        if (!s->reserved_) {
          assert(s->permits_ > 0);
          --s->permits_;
        } else {
          --s->reserved_;
        }
      }
    };
    return Awaiter{this, {}};
  }

  void release(int n = 1) {
    permits_ += n;
    while (!waiters_.empty() && permits_ > 0) {
      detail::WaitLink* w = waiters_.pop_front();
      --permits_;
      ++reserved_;
      sim_->wake(w->ev);
    }
  }

  int available() const { return permits_; }

 private:
  Simulator* sim_;
  int permits_;
  int reserved_ = 0;  // permits handed to not-yet-resumed waiters
  detail::WaitList<detail::WaitLink> waiters_;
};

}  // namespace snacc::sim
