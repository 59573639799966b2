// One-shot Future/Promise for a value that *another process* sets: an NVMe
// completion harvested by a polling loop, a buffer fill finishing while the
// committer waits. A call/return is not one of these -- it is a plain
// `co_await task()` (sim/task.hpp). Multiple coroutines may await the same
// Future; all are resumed through the event queue when the value is set,
// preserving determinism and avoiding reentrancy.
//
// Memory model: the shared one-shot State is an intrusively-refcounted block
// from the Simulator's recycling pool -- no shared_ptr, no control block, no
// atomics, and in steady state no allocation at all (a completed RPC's state
// is reused by the next one). Waiters are an intrusive FIFO list whose links
// live inside the awaiter objects (i.e. in the awaiting coroutine's frame),
// so the single-waiter fast path -- and every other path -- is inline and
// allocation-free. The same WaitLink machinery backs WaitGroup, Gate and
// Semaphore below. Handles must not outlive the Simulator (pool memory
// returns to the OS at ~Simulator).
#pragma once

#include <cassert>
#include <coroutine>
#include <new>
#include <utility>

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

template <class T>
class Future;

template <class T>
class Promise {
 public:
  explicit Promise(Simulator& sim)
      : state_(::new (sim.pool_alloc(sizeof(State))) State(&sim)) {}
  Promise() = default;
  Promise(const Promise& o) : state_(o.state_) { ref(state_); }
  Promise(Promise&& o) noexcept : state_(std::exchange(o.state_, nullptr)) {}
  Promise& operator=(const Promise& o) {
    ref(o.state_);
    unref(state_);
    state_ = o.state_;
    return *this;
  }
  Promise& operator=(Promise&& o) noexcept {
    if (this != &o) {
      unref(state_);
      state_ = std::exchange(o.state_, nullptr);
    }
    return *this;
  }
  ~Promise() { unref(state_); }

  [[nodiscard]] Future<T> future() const { return Future<T>{state_}; }

  void set(T value) {
    assert(state_ && !state_->has_value && "Promise set twice");
    ::new (static_cast<void*>(state_->slot)) T(std::move(value));
    state_->has_value = true;
    while (detail::WaitLink* w = state_->waiters.pop_front()) {
      state_->sim->wake(w->ev);
    }
  }

 private:
  friend class Future<T>;
  struct State {
    explicit State(Simulator* s) : sim(s) {}
    Simulator* sim;
    int refs = 1;
    bool has_value = false;
    detail::WaitList waiters;
    alignas(T) unsigned char slot[sizeof(T)];
    T* value() { return std::launder(reinterpret_cast<T*>(slot)); }
  };
  static void ref(State* s) {
    if (s) ++s->refs;
  }
  static void unref(State* s) {
    if (!s || --s->refs > 0) return;
    Simulator* sim = s->sim;
    if (s->has_value) s->value()->~T();
    s->~State();
    sim->pool_free(s, sizeof(State));
  }

  State* state_ = nullptr;
};

template <class T>
class [[nodiscard]] Future {
 public:
  Future() = default;
  Future(const Future& o) : state_(o.state_) { Promise<T>::ref(state_); }
  Future(Future&& o) noexcept : state_(std::exchange(o.state_, nullptr)) {}
  Future& operator=(const Future& o) {
    Promise<T>::ref(o.state_);
    Promise<T>::unref(state_);
    state_ = o.state_;
    return *this;
  }
  Future& operator=(Future&& o) noexcept {
    if (this != &o) {
      Promise<T>::unref(state_);
      state_ = std::exchange(o.state_, nullptr);
    }
    return *this;
  }
  ~Future() { Promise<T>::unref(state_); }

  /// Awaiting is inline and allocation-free: the waiter link lives in the
  /// awaiter object inside the awaiting coroutine's frame. The Future
  /// handle itself keeps the state alive across the suspension.
  auto operator co_await() const noexcept {
    struct Awaiter {
      State* st;
      detail::WaitLink link;
      bool await_ready() const noexcept { return st->has_value; }
      void await_suspend(std::coroutine_handle<> h) {
        link.ev.h = h;
        st->waiters.append(&link);
      }
      T await_resume() {
        assert(st && st->has_value);
        // Copy, not move: several awaiters may share this future.
        return *st->value();
      }
    };
    return Awaiter{state_, {}};
  }

 private:
  friend class Promise<T>;
  using State = typename Promise<T>::State;
  explicit Future(State* s) : state_(s) { Promise<T>::ref(state_); }
  State* state_ = nullptr;
};

/// Unit type for Future<void>-style signalling.
struct Done {};

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
