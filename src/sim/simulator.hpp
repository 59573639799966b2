// Discrete-event simulation kernel.
//
// A Domain owns a time-ordered event queue; model code is written as
// C++20 coroutines (sim::Task) that `co_await` delays, channels, rate
// servers and each other. Events at equal timestamps run in schedule order
// (stable sequence numbers), which makes runs fully deterministic.
//
// A Domain is the unit of parallelism: it has its own clock, its own event
// heap, and its own spawn records, so distinct domains share no mutable state
// and can run on different threads. A standalone Domain (the historical
// `Simulator` -- that name remains as an alias) is the whole simulation;
// several domains grouped under a sim::SimCluster (sim/cluster.hpp) run
// concurrently with conservative lookahead synchronization, exchanging
// traffic only through sim::Mailbox (sim/mailbox.hpp) boundaries.
//
// The queue is *intrusive and allocation-free*: every suspension primitive
// (delay, channel hand-off, cross-process completion, rate server) embeds an
// EventNode in its awaiter -- which lives in the suspended coroutine's frame
// -- and a spawn's start event lives in the spawn record that the domain's
// freelist supplies. Most link that node into the scheduler
// directly; a rate server's waiters queue behind the oldest one, and only
// that one is in the heap, under the key each reserved when it suspended.
// The heap itself stores (time, seq, node*) entries by value in a
// flat vector, so scheduling N simultaneous events costs zero heap
// allocations in steady state and comparisons never chase pointers. A
// call/return (a PCIe transaction, a memory access) is a plain awaited task
// and costs no event of its own; only waiting does. docs/MODEL.md
// ("Scheduler internals") documents the design and the ordering guarantee.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/trace.hpp"

namespace snacc::sim {

template <class T>
class TaskOf;
using Task = TaskOf<void>;
class SimCluster;

/// A strong unit wrapper (Bytes, Lba, SlotIdx, TimePs, ...): anything whose
/// raw value is reachable via `.value()`.
template <typename T>
concept UnitLike = requires(const T& t) {
  { t.value() } -> std::convertible_to<std::uint64_t>;
};

template <UnitLike T>
constexpr std::uint64_t raw_trace_arg(const T& t) {
  return t.value();
}
template <typename T>
  requires std::convertible_to<T, std::uint64_t>
constexpr std::uint64_t raw_trace_arg(const T& t) {
  return static_cast<std::uint64_t>(t);
}

/// Intrusive schedulable unit. The node is owned by its embedding object
/// (awaiter, coroutine promise, or a test's stack frame) and must stay alive
/// until it fires; it is linked into the queue at most once at a time and is
/// reusable after firing.
///
/// Dispatch: a null `fire` means "resume `h`" -- the dominant case, one
/// indirect call with no type erasure. A non-null `fire` receives the node
/// (a Mailbox delivery hook).
struct EventNode {
  void (*fire)(EventNode&) = nullptr;
  std::coroutine_handle<> h{};
  bool linked = false;
#ifndef NDEBUG
  /// Debug builds pin each node to the first domain that schedules it: a
  /// node (and therefore the coroutine frame embedding it) resumed on a
  /// different domain would race that domain's heap and spawn records, so
  /// it fails fast here instead of corrupting them.
  class Domain* debug_owner = nullptr;
#endif
};

class Domain {
 public:
  /// What a spawned (detached) frame needs beyond an awaited one: its start
  /// event and its link in the domain's registry of frames in flight. It
  /// comes from the spawning domain's freelist, so an awaited frame's
  /// promise carries none of it. A task that runs to completion unlinks and
  /// frees its record in Task's FinalAwaiter; anything still linked when the
  /// domain dies is a suspended process (server loop blocked on a channel,
  /// worker parked on a semaphore) whose frame would otherwise leak.
  struct SpawnRecord {
    SpawnRecord* prev = nullptr;
    SpawnRecord* next = nullptr;
    std::coroutine_handle<> frame;
    Domain* domain = nullptr;
    EventNode start;
  };

  Domain() { heap_.reserve(1024); }
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// Cluster identity: 0 / nullptr for a standalone domain. Set once by
  /// SimCluster at construction; the id is the tie-break key for
  /// cross-domain merges, so it never changes over a domain's life.
  std::uint32_t id() const { return id_; }
  SimCluster* cluster() const { return cluster_; }

  ~Domain() {
    // Discard pending events without running them. Every node is owned by a
    // frame or stack object that is still alive at this point (detached
    // frames are only destroyed below, after this sweep, so no node is read
    // after its owner died).
    for (const HeapEntry& e : heap_) e.node->linked = false;
    heap_.clear();
    // Destroy still-suspended spawned frames, newest first. Their records
    // stay on the slabs, which release with the members; a record that a
    // frame destructor retires here only touches slab memory, which is
    // freed last.
    while (spawned_) {
      SpawnRecord* r = spawned_;
      spawned_ = r->next;
      r->frame.destroy();
    }
  }

  TimePs now() const { return now_; }

  // -- Intrusive scheduling (the hot path) ---------------------------------

  /// Links `n` to fire at absolute time `t` (must be >= now()). The caller
  /// keeps ownership; `n` must outlive the firing. Equal-timestamp events
  /// fire in schedule-call order (a per-simulator sequence number breaks
  /// ties), which is the determinism guarantee every model relies on.
  void schedule(EventNode& n, TimePs t) { schedule(n, t, seq_++); }

  /// Takes the tie-break number the next schedule() call would use, without
  /// linking anything. A waiter that suspends now but enters the heap later
  /// (a rate-server waiter queued behind its head) keeps its place among
  /// equal-time events by linking under this number.
  std::uint64_t reserve_seq() { return seq_++; }

  /// Links `n` at `(t, seq)`, a key whose `seq` came from reserve_seq().
  void schedule(EventNode& n, TimePs t, std::uint64_t seq) {
    assert(t >= now_);
    assert(!n.linked);
#ifndef NDEBUG
    assert((n.debug_owner == nullptr || n.debug_owner == this) &&
           "EventNode scheduled on a domain other than its owner (a frame "
           "crossed a domain boundary without a Mailbox)");
    n.debug_owner = this;
#endif
    n.linked = true;
    heap_push(HeapEntry{t, seq, &n});
  }

  /// Links `n` to resume coroutine `h` at absolute time `t`.
  void schedule_resume(EventNode& n, std::coroutine_handle<> h, TimePs t) {
    n.fire = nullptr;
    n.h = h;
    schedule(n, t);
  }

  /// Zero-delay wakeup at the current time, ordered after everything
  /// already scheduled for now. `n.h` (and `n.fire` if used) must already
  /// be set -- typically by an awaiter's await_suspend.
  void wake(EventNode& n) { schedule(n, now_); }

  /// Starts a coroutine task detached; the frame frees itself on completion
  /// and is registered here so a frame suspended at simulation end is freed
  /// by ~Simulator. Only `void` tasks: a detached frame has no one to hand
  /// a result to. Defined in task.hpp (needs the full Task type).
  void spawn(Task task);

  /// Registers a spawned frame: its record comes from this domain's
  /// freelist and is linked into the registry, and its start event runs the
  /// frame at the current time, so spawn() never reenters model code.
  SpawnRecord* adopt_spawned(std::coroutine_handle<> frame) {
    auto* r = ::new (alloc_record()) SpawnRecord{};
    r->next = spawned_;
    r->frame = frame;
    r->domain = this;
    if (spawned_) spawned_->prev = r;
    spawned_ = r;
    schedule_resume(r->start, frame, now_);
    return r;
  }
  /// Unlinks a spawned frame that ran to completion and puts its record on
  /// the freelist, chained through `next`.
  void retire_spawned(SpawnRecord* r) {
    if (r->prev) r->prev->next = r->next;
    else spawned_ = r->next;
    if (r->next) r->next->prev = r->prev;
    r->next = free_records_;
    free_records_ = r;
  }

  /// Runs a single event. Returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry e = heap_pop();
    assert(e.t >= now_);
    now_ = e.t;
    ++events_processed_;
    // Hide the frame pulls of upcoming events behind this dispatch: a node
    // lives inside its owning awaiter/promise (i.e. in the suspended frame),
    // and the frame header sits at lower addresses on the same or a
    // neighbouring line, so for the next event both node and node-64 are
    // warmed (wakeup fields plus resume pointer). Beyond the new front, the
    // root's children are the only candidates for the pop after next --
    // their node line alone gives each frame ~2 dispatches of pull latency
    // (the second line measured as not worth the extra prefetch slots).
    const std::size_t live = heap_.size();
    if (live > 0) {
      const char* nx = reinterpret_cast<const char*>(heap_.front().node);
      __builtin_prefetch(nx);
      __builtin_prefetch(nx - 64);
      const std::size_t lookahead = std::min<std::size_t>(live, 1 + kArity);
      for (std::size_t i = 1; i < lookahead; ++i) {
        __builtin_prefetch(heap_[i].node);
      }
    }
    EventNode& n = *e.node;
    n.linked = false;
    // Resume is the overwhelmingly common dispatch; keeping it on the
    // fall-through path is worth ~8% event throughput on GCC 12.
    if (n.fire == nullptr) [[likely]] n.h.resume();
    else n.fire(n);
    return true;
  }

  /// Runs until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Runs until simulated time would exceed `t` (events at exactly `t` run).
  /// Returns the new current time.
  TimePs run_until(TimePs t) {
    while (!heap_.empty() && heap_.front().t <= t) step();
    now_ = std::max(now_, t);
    return now_;
  }

  // -- Cluster machinery (sim/cluster.hpp; harmless standalone) ------------

  /// Sentinel for "no pending event" -- beyond any reachable simulated time.
  static constexpr TimePs kNever{~0ull};

  /// Timestamp of the earliest pending event, or kNever when idle. The
  /// cluster's lookahead computation reads this at every synchronization
  /// barrier; it never dereferences the node.
  TimePs next_event_time() const {
    return heap_.empty() ? kNever : heap_.front().t;
  }

  /// Runs every event strictly before `before` and stops -- one conservative
  /// window. Unlike run_until, the clock is left at the last processed
  /// event, not advanced to the window edge (the next window's lower bound
  /// is computed from next_event_time, which must stay exact). Kept out of
  /// line so that every cluster runs one compiled copy of this loop:
  /// inlined into the cluster's worker loop, a 1-domain cluster ran
  /// sim_kernel_bench's timer storm at 9 M events/s instead of 15 M (GCC 12
  /// -O2, 4-vCPU x86 guest).
  [[gnu::noinline]] void run_window(TimePs before) {
    while (!heap_.empty() && heap_.front().t < before) step();
  }

  /// Unlinks a scheduled node without firing it (no-op when not linked).
  /// O(pending) -- teardown-only, used by ~Mailbox to withdraw delivery
  /// nodes whose storage dies before this domain does.
  void cancel(EventNode& n) {
    if (!n.linked) return;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (heap_[i].node != &n) continue;
      heap_erase(i);
      n.linked = false;
      return;
    }
    assert(false && "linked EventNode missing from its domain's heap");
  }

  std::uint64_t events_processed() const { return events_processed_; }
  bool idle() const { return heap_.empty(); }

  /// Event tracing (off by default); see sim/trace.hpp.
  Tracer& tracer() { return tracer_; }
  void trace(TraceCat cat, const char* label, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    tracer_.record(now_, cat, label, a, b);
  }
  /// Typed overload: accepts the strong unit wrappers (Bytes, Lba, SlotIdx,
  /// ...) directly, so model code never unwraps a domain value just to
  /// trace it. Enabled whenever at least one argument is unit-like.
  template <typename A, typename B = std::uint64_t>
    requires(UnitLike<A> || UnitLike<B>)
  void trace(TraceCat cat, const char* label, const A& a, const B& b = 0) {
    trace(cat, label, raw_trace_arg(a), raw_trace_arg(b));
  }

  /// The awaiter of delay()/delay_until(). The timer node lives in the
  /// awaiter itself -- no allocation, no type erasure. It is trivially
  /// copyable, so a frame that waits many times can keep one named awaiter
  /// and assign each new wait to it (docs/MODEL.md, "Coroutine frames").
  struct DelayAwaiter {
    Domain* sim = nullptr;
    TimePs wake;
    EventNode node{};
    bool await_ready() const noexcept { return wake <= sim->now_; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->schedule_resume(node, h, wake);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable: suspends the current coroutine for `delay`.
  DelayAwaiter delay(TimePs d) { return DelayAwaiter{this, now_ + d}; }
  /// Awaitable: suspends until absolute time `t` (no-op if in the past).
  DelayAwaiter delay_until(TimePs t) {
    return DelayAwaiter{this, std::max(t, now_)};
  }

 private:
  // Heap entries carry the ordering key by value: sift operations compare
  // and move 24-byte PODs and never dereference the node, so a cold frame
  // cannot cost a cache miss per comparison.
  struct HeapEntry {
    TimePs t;
    std::uint64_t seq;
    EventNode* node;
  };
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    return a.t != b.t ? a.t > b.t : a.seq > b.seq;
  }

  // 4-ary min-heap with hole percolation (one placement per operation
  // instead of a swap chain). Arity 4 halves the depth of the sift-down
  // that dominates pop cost; the extra sibling comparisons stay within one
  // cache line of entries.
  static constexpr std::size_t kArity = 4;

  void heap_push(HeapEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);  // reserve the slot; value is placed below
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!later(heap_[parent], e)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  HeapEntry heap_pop() {
    const HeapEntry top = heap_.front();
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) break;
        std::size_t min_child = first;
        const std::size_t end = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < end; ++c) {
          if (later(heap_[min_child], heap_[c])) min_child = c;
        }
        if (!later(last, heap_[min_child])) break;
        heap_[i] = heap_[min_child];
        i = min_child;
      }
      heap_[i] = last;
    }
    return top;
  }

  /// Removes the entry at heap index `i` (for cancel; cold path). The
  /// displaced tail entry is sifted up or down as its key demands.
  void heap_erase(std::size_t i) {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (i >= n) return;  // the erased entry was the tail
    std::size_t j = i;
    while (j > 0) {
      const std::size_t parent = (j - 1) / kArity;
      if (!later(heap_[parent], last)) break;
      heap_[j] = heap_[parent];
      j = parent;
    }
    if (j != i) {
      heap_[j] = last;
      return;
    }
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t min_child = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (later(heap_[min_child], heap_[c])) min_child = c;
      }
      if (!later(last, heap_[min_child])) break;
      heap_[i] = heap_[min_child];
      i = min_child;
    }
    heap_[i] = last;
  }

  /// A record for the next spawn: the last one retired, else carved from a
  /// slab. Slabs are not zeroed, so a slab page costs resident memory only
  /// once a record on it is used; memory returns to the OS only when the
  /// domain dies.
  void* alloc_record() {
    if (SpawnRecord* r = free_records_) {
      free_records_ = r->next;
      return r;
    }
    if (slabs_.empty() || slab_used_ == kRecordsPerSlab) {
      slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          kRecordsPerSlab * sizeof(SpawnRecord)));
      slab_used_ = 0;
    }
    return slabs_.back().get() + sizeof(SpawnRecord) * slab_used_++;
  }

  static constexpr std::size_t kRecordsPerSlab =
      64 * 1024 / sizeof(SpawnRecord);

  friend class SimCluster;

  /// Bounded-run epilogue (cluster run_until): the clock advances to the
  /// horizon exactly like Simulator::run_until does after its last event.
  void advance_clock_to(TimePs t) { now_ = std::max(now_, t); }

  std::vector<HeapEntry> heap_;
  SpawnRecord* spawned_ = nullptr;  // spawned frames still in flight
  Tracer tracer_;
  TimePs now_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  SimCluster* cluster_ = nullptr;  // set once by SimCluster
  std::uint32_t id_ = 0;
  SpawnRecord* free_records_ = nullptr;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t slab_used_ = 0;  // records carved from the newest slab
};

// Awaiters live in the awaiting frame; a plain copy must be a whole copy.
static_assert(std::is_trivially_copyable_v<Domain::DelayAwaiter>);

/// The historical name: a standalone Domain is exactly the old
/// single-threaded Simulator, and every single-domain code path is
/// unchanged. New code that is explicit about partitioning should say
/// Domain; `Simulator` remains correct everywhere else.
using Simulator = Domain;

}  // namespace snacc::sim
