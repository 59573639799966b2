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
// runs deterministic and free of reentrancy.
#pragma once

#include <cassert>
#include <coroutine>

#include "sim/simulator.hpp"

namespace snacc::sim {

namespace detail {

/// Intrusive waiter link; lives in an awaiter object. The EventNode carries
/// the wakeup; `next` chains the FIFO.
struct WaitLink {
  EventNode ev{};
  WaitLink* next = nullptr;
};

/// FIFO of WaitLinks with O(1) append/pop. Wake order == await order, which
/// keeps equal-timestamp scheduling identical to the pre-intrusive kernel.
struct WaitList {
  WaitLink* head = nullptr;
  WaitLink* tail = nullptr;
  bool empty() const { return head == nullptr; }
  void append(WaitLink* w) {
    w->next = nullptr;
    if (tail) tail->next = w;
    else head = w;
    tail = w;
  }
  WaitLink* pop_front() {
    WaitLink* w = head;
    if (w) {
      head = w->next;
      if (!head) tail = nullptr;
    }
    return w;
  }
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
        wg->waiters_.append(&link);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

  int pending() const { return count_; }

 private:
  Simulator* sim_;
  int count_ = 0;
  detail::WaitList waiters_;
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
        g->waiters_.append(&link);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, {}};
  }

 private:
  Simulator* sim_;
  bool open_;
  detail::WaitList waiters_;
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
        s->waiters_.append(&link);
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
  detail::WaitList waiters_;
};

}  // namespace snacc::sim
