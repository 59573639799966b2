// sim::TaskOf<T> -- the coroutine type all device/model processes are
// written in. `sim::Task` is the `void` case.
//
// Two usage modes:
//   * `co_await some_task()`     -- structured: the caller suspends until the
//                                   child finishes and receives its
//                                   `co_return` value; the child frame is
//                                   freed by the temporary task's destructor.
//   * `sim.spawn(some_task())`   -- detached (`Task` only): the frame frees
//                                   itself when the coroutine runs to
//                                   completion.
// Tasks are lazy: nothing runs until awaited or spawned. A default-built
// `Task{}` is already done: awaiting it does not suspend, so a `Task`
// function that never waits can do its work in the call and return one,
// with no coroutine frame (pcie::Target's no-time writes). Both types are
// [[nodiscard]], and the build turns a dropped one into an error
// (-Werror=unused-result). Exceptions escaping a model process are
// programming errors and terminate the simulation.
//
// A result type crosses a co_await boundary, so under g++ 12 a struct
// holding owning members must declare its special members (DESIGN.md,
// toolchain note); sim_test's TaskResult.* cases guard the result slot.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/simulator.hpp"

namespace snacc::sim {

namespace detail {

/// Where a finished task's `co_return` value waits for its awaiter.
template <class T>
struct ResultSlot {
  std::optional<T> result;
  void return_value(T value) { result.emplace(std::move(value)); }
};

template <>
struct ResultSlot<void> {
  void return_void() noexcept {}
};

}  // namespace detail

template <class T>
class [[nodiscard]] TaskOf {
 public:
  struct promise_type : detail::ResultSlot<T> {
    TaskOf get_return_object() {
      return TaskOf{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        promise_type& p = h.promise();
        std::coroutine_handle<> next =
            p.continuation ? p.continuation : std::noop_coroutine();
        if (Domain::SpawnRecord* r = p.spawned) {
          // Frame owns itself in detached mode; deregister from the
          // domain's end-of-life registry before freeing.
          r->domain->retire_spawned(r);
          h.destroy();
        }
        return next;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() noexcept {
      std::fputs("snacc::sim: exception escaped a Task; aborting\n", stderr);
      std::terminate();
    }

    // An awaited frame carries two words here; spawn() keeps the rest of a
    // detached frame's bookkeeping in a record from its domain's pool.
    std::coroutine_handle<> continuation;
    Domain::SpawnRecord* spawned = nullptr;  // set by spawn()
  };

  TaskOf() = default;
  TaskOf(TaskOf&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  TaskOf& operator=(TaskOf&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  TaskOf(const TaskOf&) = delete;
  TaskOf& operator=(const TaskOf&) = delete;
  ~TaskOf() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  /// Awaiting a task starts it (lazy) with symmetric transfer and resumes
  /// the awaiter when it completes, handing over the `co_return` value.
  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) {
      assert(h_ && h_.promise().result.has_value());
      return std::move(*h_.promise().result);
    }
  }

 private:
  friend class Domain;
  explicit TaskOf(std::coroutine_handle<promise_type> h) : h_(h) {}

  std::coroutine_handle<promise_type> release() { return std::exchange(h_, {}); }
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

inline void Simulator::spawn(Task task) {
  auto h = task.release();
  if (!h) return;
  h.promise().spawned = adopt_spawned(h);
}

}  // namespace snacc::sim
