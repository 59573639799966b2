// Unit tests for the discrete-event kernel: event ordering, coroutine tasks
// and their result slot, channels (backpressure, close), wait groups,
// gates, semaphores and rate servers.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/kv_store.hpp"
#include "common/payload.hpp"
#include "nvme/spec.hpp"
#include "sim/channel.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "spdk/driver.hpp"
#include "run_at.hpp"

namespace snacc::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.spawn(run_at(&sim, ns(30), [&] { order.push_back(3); }));
  sim.spawn(run_at(&sim, ns(10), [&] { order.push_back(1); }));
  sim.spawn(run_at(&sim, ns(20), [&] { order.push_back(2); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(30));
}

TEST(Simulator, EqualTimestampsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(run_at(&sim, ns(7), [&order, i] { order.push_back(i); }));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.spawn(run_at(&sim, us(1), [&] { ++fired; }));
  sim.spawn(run_at(&sim, us(3), [&] { ++fired; }));
  sim.run_until(us(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), us(2));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedEventsFromHandlers) {
  Simulator sim;
  int depth = 0;
  sim.spawn(run_at(&sim, ns(1), [&] {
    sim.spawn(run_at(&sim, sim.now() + ns(1), [&] {
      sim.spawn(run_at(&sim, sim.now() + ns(1), [&] { depth = 3; }));
      depth = 2;
    }));
    depth = 1;
  }));
  sim.run();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(sim.now(), ns(3));
}

TEST(Task, DelaySuspendsForExactDuration) {
  Simulator sim;
  TimePs woke;
  auto proc = [&]() -> Task {
    co_await sim.delay(us(5));
    woke = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(woke, us(5));
}

TEST(Task, AwaitedChildRunsToCompletionFirst) {
  Simulator sim;
  std::vector<int> order;
  auto child = [&]() -> Task {
    order.push_back(1);
    co_await sim.delay(ns(100));
    order.push_back(2);
  };
  auto parent = [&]() -> Task {
    order.push_back(0);
    co_await child();
    order.push_back(3);
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Task, ReusedAwaitersAndEmptyTasksCostOnlyTheirWaits) {
  // A frame may keep one named awaiter per kind and assign each wait to it
  // (pcie::Fabric does), and a default-built Task is already done.
  Simulator sim;
  RateServer link(sim, 1.0);  // 1 GB/s: 1000 bytes take 1 us
  std::vector<TimePs> woke;
  auto proc = [&]() -> Task {
    Simulator::DelayAwaiter wait = sim.delay(us(5));
    co_await wait;
    woke.push_back(sim.now());
    wait = sim.delay(us(3));
    co_await wait;
    woke.push_back(sim.now());
    RateServer::Waiter grant = link.acquire(1000);
    co_await grant;
    grant = link.acquire(1000);
    co_await grant;
    woke.push_back(sim.now());
    co_await Task{};
    woke.push_back(sim.now());
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(woke, (std::vector<TimePs>{us(5), us(8), us(10), us(10)}));
  EXPECT_EQ(sim.events_processed(), 5u);  // the start and four waits
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [&](int id, TimePs period) -> Task {
    for (int i = 0; i < 3; ++i) {
      co_await sim.delay(period);
      order.push_back(id);
    }
  };
  sim.spawn(worker(0, ns(10)));
  sim.spawn(worker(1, ns(15)));
  sim.run();
  // t=10:0, t=15:1, t=20:0, t=30: 1 then 0 (1's delay was scheduled at
  // t=15, before 0's at t=20), t=45:1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Channel, FifoOrderPreserved) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  std::vector<int> got;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 10; ++i) co_await ch.push(i);
    ch.close();
  };
  auto consumer = [&]() -> Task {
    while (auto v = co_await ch.pop()) got.push_back(*v);
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Channel, BackpressureBlocksProducer) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  TimePs producer_done;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 4; ++i) co_await ch.push(i);
    producer_done = sim.now();
  };
  auto consumer = [&]() -> Task {
    co_await sim.delay(us(10));
    while (co_await ch.pop()) {
      if (ch.empty() && ch.size() == 0) break;  // drain
    }
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run_until(us(100));
  // Producer cannot finish before the consumer starts draining at 10 us.
  EXPECT_GE(producer_done, us(10));
}

TEST(Channel, PopOnClosedEmptyReturnsNullopt) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  bool saw_end = false;
  auto consumer = [&]() -> Task {
    auto v = co_await ch.pop();
    saw_end = !v.has_value();
  };
  sim.spawn(consumer());
  sim.spawn(run_at(&sim, ns(5), [&] { ch.close(); }));
  sim.run();
  EXPECT_TRUE(saw_end);
}

TEST(Channel, CloseDrainsRemainingItems) {
  Simulator sim;
  Channel<int> ch(sim, 8);
  std::vector<int> got;
  auto producer = [&]() -> Task {
    co_await ch.push(1);
    co_await ch.push(2);
    ch.close();
  };
  auto consumer = [&]() -> Task {
    co_await sim.delay(us(1));
    while (auto v = co_await ch.pop()) got.push_back(*v);
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, MultipleConsumersEachGetItems) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  int count_a = 0;
  int count_b = 0;
  auto consumer = [&](int* counter) -> Task {
    while (auto v = co_await ch.pop()) ++*counter;
  };
  auto producer = [&]() -> Task {
    for (int i = 0; i < 100; ++i) co_await ch.push(i);
    ch.close();
  };
  sim.spawn(consumer(&count_a));
  sim.spawn(consumer(&count_b));
  sim.spawn(producer());
  sim.run();
  EXPECT_EQ(count_a + count_b, 100);
  EXPECT_GT(count_a, 0);
  EXPECT_GT(count_b, 0);
}

// Regression test for a GCC 12 coroutine miscompilation: awaiters returned
// by value that carry non-trivial members (e.g. aggregates holding a
// shared_ptr) are duplicated bitwise and destroyed twice, silently dropping
// ownership. The channel therefore keeps all in-flight values in
// channel-owned nodes; this test fails (use_count reaches 0 mid-flight) if
// that invariant is broken.
TEST(Channel, SharedOwnershipSurvivesHandoff) {
  // NB: Msg deliberately declares its special members -- a plain aggregate
  // {shared_ptr, bool} is bitwise-duplicated by the compiler bug and this
  // test would fail. Every repo struct crossing co_await boundaries follows
  // this pattern (Chunk, RobEntry, ReadResult).
  struct Msg {
    std::shared_ptr<int> p;
    bool flag = false;
    Msg() = default;
    Msg(std::shared_ptr<int> q, bool f) : p(std::move(q)), flag(f) {}
    Msg(Msg&&) noexcept = default;
    Msg& operator=(Msg&&) noexcept = default;
  };
  Simulator sim;
  Channel<Msg> ch(sim, 4);
  std::weak_ptr<int> weak;
  long observed_use = -1;
  int observed_value = -1;
  auto receiver = [&]() -> Task {
    auto msg = co_await ch.pop();
    observed_use = weak.use_count();
    if (msg && msg->p) observed_value = *msg->p;
  };
  auto sender = [&]() -> Task {
    auto sp = std::make_shared<int>(77);
    weak = sp;
    co_await ch.push(Msg(std::move(sp), true));
    EXPECT_GE(weak.use_count(), 1) << "ownership lost during push handoff";
  };
  sim.spawn(receiver());
  sim.spawn(sender());
  sim.run();
  EXPECT_EQ(observed_use, 1);
  EXPECT_EQ(observed_value, 77);
  EXPECT_EQ(weak.use_count(), 0);  // consumer released it at scope exit
}

TEST(Channel, SharedOwnershipSurvivesBackpressuredPush) {
  struct Msg {
    std::shared_ptr<int> p;
    Msg() = default;
    explicit Msg(std::shared_ptr<int> q) : p(std::move(q)) {}
    Msg(Msg&&) noexcept = default;
    Msg& operator=(Msg&&) noexcept = default;
  };
  Simulator sim;
  Channel<Msg> ch(sim, 1);
  std::vector<std::weak_ptr<int>> weaks;
  int received = 0;
  auto sender = [&]() -> Task {
    for (int i = 0; i < 5; ++i) {
      auto sp = std::make_shared<int>(i);
      weaks.push_back(sp);
      co_await ch.push(Msg(std::move(sp)));
    }
    ch.close();
  };
  auto receiver = [&]() -> Task {
    while (auto msg = co_await ch.pop()) {
      co_await sim.delay(us(1));
      EXPECT_TRUE(msg->p != nullptr);
      if (msg->p) {
        EXPECT_EQ(*msg->p, received);
      }
      ++received;
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(received, 5);
  for (auto& w : weaks) EXPECT_EQ(w.use_count(), 0);
}

// g++ 12 result-slot regression (DESIGN.md toolchain note): a TaskOf<T>
// result crosses a co_await, the spot where g++ 12 duplicates aggregates
// bitwise. hand_over() returns make()'s value through co_return into a
// co_await expression, once from a child that completes without
// suspending and once from one that suspends first; the tests below cover
// every result type that src/ hands across co_await and check ownership
// (use counts) wherever the type owns shared memory.
template <class T, class Make>
std::vector<T> hand_over(Make make) {
  std::vector<T> got;
  for (const bool suspend : {false, true}) {
    Simulator sim;
    auto child = [&]() -> TaskOf<T> {
      T value = make();
      if (suspend) co_await sim.delay(ns(1));
      co_return value;
    };
    auto parent = [&]() -> Task { got.push_back(co_await child()); };
    sim.spawn(parent());
    sim.run();
  }
  return got;
}

TEST(TaskResult, PayloadKeepsSharedOwnership) {
  const Payload sent = Payload::filled(4096, 0xA5);
  std::vector<Payload> got = hand_over<Payload>([&] { return sent; });
  ASSERT_EQ(got.size(), 2u);
  // The sender's handle plus the two received ones; every copy the child
  // frames and their result slots held is gone.
  EXPECT_EQ(sent.use_count(), 3);
  for (const Payload& p : got) {
    EXPECT_TRUE(p.has_data() && p.content_equals(sent));
  }
  got.clear();
  EXPECT_EQ(sent.use_count(), 1);
}

TEST(TaskResult, TwoMemberStructKeepsSharedOwnership) {
  // Declares its special members like every repo struct crossing co_await
  // (the Channel.SharedOwnership* rule).
  struct Msg {
    std::shared_ptr<int> p;
    bool flag = false;
    Msg() = default;
    Msg(std::shared_ptr<int> q, bool f) : p(std::move(q)), flag(f) {}
    Msg(Msg&&) noexcept = default;
    Msg& operator=(Msg&&) noexcept = default;
  };
  std::vector<std::weak_ptr<int>> weaks;
  std::vector<Msg> got = hand_over<Msg>([&] {
    auto sp = std::make_shared<int>(77);
    weaks.push_back(sp);
    return Msg(std::move(sp), true);
  });
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(weaks[i].use_count(), 1) << "ownership lost in hand-over " << i;
    EXPECT_TRUE(got[i].flag);
    ASSERT_TRUE(got[i].p != nullptr);
    EXPECT_EQ(*got[i].p, 77);
  }
  got.clear();
  for (const auto& w : weaks) EXPECT_EQ(w.use_count(), 0);
}

TEST(TaskResult, ReadResultsKeepSharedOwnership) {
  const Payload sent = Payload::filled(512, 0x3C);
  std::vector<ReadResult> reads =
      hand_over<ReadResult>([&] { return ReadResult{sent, false}; });
  std::vector<spdk::ReadCompletion> completions =
      hand_over<spdk::ReadCompletion>([&] {
        return spdk::ReadCompletion{sent, nvme::Status::kWriteFault};
      });
  EXPECT_EQ(sent.use_count(), 5);
  for (const ReadResult& r : reads) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.data.content_equals(sent));
  }
  for (const spdk::ReadCompletion& c : completions) {
    EXPECT_EQ(c.status, nvme::Status::kWriteFault);
    EXPECT_TRUE(c.data.content_equals(sent));
  }
  reads.clear();
  completions.clear();
  EXPECT_EQ(sent.use_count(), 1);
}

TEST(TaskResult, ValueResultsRoundTrip) {
  EXPECT_EQ(hand_over<bool>([] { return true; }),
            (std::vector<bool>{true, true}));
  EXPECT_EQ(hand_over<std::uint64_t>([] { return std::uint64_t{41}; }),
            (std::vector<std::uint64_t>{41, 41}));
  EXPECT_EQ(hand_over<SlotIdx>([] { return SlotIdx{3}; }),
            (std::vector<SlotIdx>{SlotIdx{3}, SlotIdx{3}}));
  EXPECT_EQ(hand_over<Bytes>([] { return Bytes{8192}; }),
            (std::vector<Bytes>{Bytes{8192}, Bytes{8192}}));
  EXPECT_EQ(hand_over<std::optional<Bytes>>(
                [] { return std::optional<Bytes>(Bytes{4096}); }),
            (std::vector<std::optional<Bytes>>{Bytes{4096}, Bytes{4096}}));
  EXPECT_EQ(hand_over<nvme::Status>([] { return nvme::Status::kWriteFault; }),
            (std::vector<nvme::Status>{nvme::Status::kWriteFault,
                                       nvme::Status::kWriteFault}));
  EXPECT_EQ(
      hand_over<apps::PutStatus>([] { return apps::PutStatus::kLogFull; }),
            (std::vector<apps::PutStatus>{apps::PutStatus::kLogFull,
                                          apps::PutStatus::kLogFull}));
  const std::vector<BusAddr> pages{BusAddr{0x1000}, BusAddr{0x2000}};
  EXPECT_EQ(hand_over<std::vector<BusAddr>>([&] { return pages; }),
            (std::vector<std::vector<BusAddr>>{pages, pages}));
  for (const auto& id : hand_over<nvme::IdentifyController>([] {
         nvme::IdentifyController c;
         c.namespace_blocks = 1u << 20;
         c.max_transfer_bytes = 1u << 20;
         return c;
       })) {
    EXPECT_EQ(id.namespace_blocks, 1u << 20);
    EXPECT_EQ(id.max_transfer_bytes, 1u << 20);
  }
  for (const auto& w : hand_over<spdk::WorkloadResult>([] {
         spdk::WorkloadResult r;
         r.bytes = 3 * 4096;
         r.commands = 3;
         for (int i = 1; i <= 3; ++i) r.latency.add(us(i));
         return r;
       })) {
    EXPECT_EQ(w.bytes, 3u * 4096);
    EXPECT_EQ(w.commands, 3u);
    EXPECT_EQ(w.latency.count(), 3u);
  }
}

TEST(WaitGroup, JoinsAllTasks) {
  Simulator sim;
  WaitGroup wg(sim);
  TimePs joined_at;
  auto worker = [&](TimePs d) -> Task {
    co_await sim.delay(d);
    wg.done();
  };
  auto joiner = [&]() -> Task {
    co_await wg.wait();
    joined_at = sim.now();
  };
  wg.add(3);
  sim.spawn(worker(us(1)));
  sim.spawn(worker(us(5)));
  sim.spawn(worker(us(3)));
  sim.spawn(joiner());
  sim.run();
  EXPECT_EQ(joined_at, us(5));
}

TEST(Gate, ClosedGateBlocksUntilOpened) {
  // open() wakes every parked waiter, not just the first.
  Simulator sim;
  Gate gate(sim, /*open=*/false);
  TimePs passed_at[2];
  auto proc = [&](TimePs* out) -> Task {
    co_await gate.opened();
    *out = sim.now();
  };
  sim.spawn(proc(&passed_at[0]));
  sim.spawn(proc(&passed_at[1]));
  sim.spawn(run_at(&sim, us(9), [&] { gate.open(); }));
  sim.run();
  EXPECT_EQ(passed_at[0], us(9));
  EXPECT_EQ(passed_at[1], us(9));
}

TEST(Gate, OpenGateDoesNotBlock) {
  Simulator sim;
  Gate gate(sim, /*open=*/true);
  bool passed = false;
  auto proc = [&]() -> Task {
    co_await gate.opened();
    passed = true;
    co_return;
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int max_active = 0;
  auto worker = [&]() -> Task {
    co_await sem.acquire();
    ++active;
    max_active = std::max(max_active, active);
    co_await sim.delay(us(1));
    --active;
    sem.release();
  };
  for (int i = 0; i < 10; ++i) sim.spawn(worker());
  sim.run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(RateServer, SerializesAtConfiguredRate) {
  Simulator sim;
  RateServer server(sim, /*gb_s=*/1.0);  // 1 GB/s => 1 byte/ns
  TimePs done;
  auto proc = [&]() -> Task {
    co_await server.acquire(1000);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(done, us(1));
}

TEST(RateServer, FifoQueueingAccumulates) {
  Simulator sim;
  RateServer server(sim, 1.0);
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(500);
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  sim.spawn(proc());
  sim.spawn(proc());
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], ns(500));
  EXPECT_EQ(done[1], ns(1000));
  EXPECT_EQ(done[2], ns(1500));
}

TEST(RateServer, PerOpOverheadCharged) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(100));
  TimePs done;
  auto proc = [&]() -> Task {
    co_await server.acquire(100);
    co_await server.acquire(100);
    done = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(done, ns(400));
  EXPECT_EQ(server.total_bytes(), 200u);
  EXPECT_EQ(server.total_ops(), 2u);
}

TEST(RateServer, AchievesConfiguredBandwidthUnderLoad) {
  Simulator sim;
  RateServer server(sim, 6.9);
  std::uint64_t moved = 0;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 1000; ++i) {
      co_await server.acquire(4096);
      moved += 4096;
    }
  };
  sim.spawn(producer());
  sim.run();
  const double gbs = gb_per_s(moved, sim.now());
  EXPECT_NEAR(gbs, 6.9, 0.05);
}

TEST(RateServer, SetRateMidFlightAppliesToSubsequentAcquiresOnly) {
  Simulator sim;
  RateServer server(sim, 1.0);  // 1 GB/s => 1 byte/ns
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(1000);  // occupies [0, 1000 ns) at the old rate
    done.push_back(sim.now());
    co_await server.acquire(1000);  // served at the doubled rate: 500 ns
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  // Rate change lands while the first acquisition is in flight; its already
  // computed occupation window must not shrink retroactively.
  sim.spawn(run_at(&sim, ns(200), [&] { server.set_rate(2.0); }));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], ns(1000));
  EXPECT_EQ(done[1], ns(1500));
}

TEST(RateServer, ZeroByteAcquireChargesPerOpOnly) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(50));
  std::vector<TimePs> done;
  auto proc = [&]() -> Task {
    co_await server.acquire(0);
    done.push_back(sim.now());
    co_await server.acquire(0);
    done.push_back(sim.now());
  };
  sim.spawn(proc());
  sim.run();
  // Command-only traffic still serializes: per_op each, back to back.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], ns(50));
  EXPECT_EQ(done[1], ns(100));
  EXPECT_EQ(server.total_bytes(), 0u);
  EXPECT_EQ(server.total_ops(), 2u);
}

TEST(RateServer, ZeroByteAcquireWithoutPerOpCompletesImmediately) {
  Simulator sim;
  RateServer server(sim, 1.0);
  TimePs done;
  bool ran = false;
  auto proc = [&]() -> Task {
    co_await server.acquire(0);
    done = sim.now();
    ran = true;
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(done, TimePs{});
  EXPECT_EQ(server.total_ops(), 1u);
}

TEST(RateServer, BusyTimeAndUtilizationAccounting) {
  Simulator sim;
  RateServer server(sim, 1.0, /*per_op=*/ns(100));
  auto proc = [&]() -> Task {
    co_await server.acquire(400);       // 100 + 400 = 500 ns occupied
    co_await sim.delay(ns(500));        // idle gap
    co_await server.acquire(0, ns(25)); // 100 + 0 + 25 = 125 ns occupied
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(server.busy_time(), ns(625));
  EXPECT_EQ(server.busy_until(), sim.now());
  EXPECT_NEAR(server.utilization(sim.now()), 625.0 / 1125.0, 1e-9);
  EXPECT_EQ(server.utilization(TimePs{}), 0.0);
  // busy_time is charged eagerly at acquire(), so utilization over a window
  // shorter than the committed occupation clamps at 1.
  EXPECT_EQ(server.utilization(ns(1)), 1.0);
}

// Queued waiters point at their server.
static_assert(!std::is_copy_constructible_v<RateServer> &&
              !std::is_move_constructible_v<RateServer>);

// A queued waiter enters the heap only when its predecessor resumes, but
// under the sequence number it reserved when it suspended: it must still
// fire before an equal-time timer that suspended after it.
TEST(RateServer, QueuedCompletionKeepsItsPlaceAmongEqualTimeEvents) {
  Simulator sim;
  RateServer server(sim, 1.0);  // 1 GB/s => 1 byte/ns
  std::vector<char> order;
  auto transfer = [&](char id) -> Task {
    co_await server.acquire(1000);
    order.push_back(id);
  };
  sim.spawn(transfer('A'));  // [0, 1000 ns)
  sim.spawn(transfer('B'));  // queued behind A: [1000, 2000 ns)
  sim.spawn(run_at(&sim, ns(2000), [&] { order.push_back('T'); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'T'}));
  EXPECT_EQ(sim.now(), ns(2000));
}

TEST(RateServer, EqualTimeTimerSuspendedBeforeQueuedWaiterFiresFirst) {
  Simulator sim;
  RateServer server(sim, 1.0);
  std::vector<char> order;
  auto transfer = [&](char id) -> Task {
    co_await server.acquire(1000);
    order.push_back(id);
  };
  sim.spawn(transfer('A'));
  sim.spawn(run_at(&sim, ns(2000), [&] { order.push_back('T'); }));
  sim.spawn(transfer('B'));
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'T', 'B'}));
}

TEST(RateServer, QueuedWaitersFinishInFifoOrderAtOneEventEach) {
  Simulator sim;
  RateServer server(sim, 1.0);
  constexpr int kN = 6;
  // The two zero-cost waiters finish together with the one before them.
  const std::uint64_t bytes[kN] = {100, 200, 300, 400, 0, 0};
  std::vector<std::pair<int, TimePs>> done;
  auto waiter = [&](int i) -> Task {
    co_await server.acquire(bytes[i]);
    done.emplace_back(i, sim.now());
    if (i == 3) {
      // Waiters 4 and 5 are still queued, but both are due now, so a
      // zero-cost grant completes at once, without suspending.
      co_await server.acquire(0);
      done.emplace_back(-1, sim.now());
    }
  };
  for (int i = 0; i < kN; ++i) sim.spawn(waiter(i));
  sim.run();
  const std::vector<std::pair<int, TimePs>> want = {
      {0, ns(100)},  {1, ns(300)},  {2, ns(600)}, {3, ns(1000)},
      {-1, ns(1000)}, {4, ns(1000)}, {5, ns(1000)}};
  EXPECT_EQ(done, want);
  // One start and one timer per waiter; the inline grant costs no event.
  EXPECT_EQ(sim.events_processed(), 2u * kN);
  EXPECT_EQ(server.total_ops(), kN + 1u);
}

// -- Intrusive scheduling API (EventNode) -----------------------------------

TEST(Simulator, IntrusiveNodesFireInScheduleOrderAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  struct Probe : EventNode {
    std::vector<int>* out = nullptr;
    int id = 0;
    static void run(EventNode& e) {
      auto& p = static_cast<Probe&>(e);
      p.out->push_back(p.id);
    }
  };
  Probe probes[4];
  for (int i = 0; i < 4; ++i) {
    probes[i].fire = &Probe::run;
    probes[i].out = &order;
    probes[i].id = i;
  }
  // Interleave two timestamps; within each, schedule-call order must hold.
  sim.schedule(probes[2], ns(20));
  sim.schedule(probes[0], ns(10));
  sim.schedule(probes[3], ns(20));
  sim.schedule(probes[1], ns(10));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), ns(20));
}

TEST(Simulator, IntrusiveNodeIsReusableAfterFiring) {
  Simulator sim;
  int fires = 0;
  struct Probe : EventNode {
    int* count = nullptr;
    static void run(EventNode& e) { ++*static_cast<Probe&>(e).count; }
  };
  Probe p;
  p.fire = &Probe::run;
  p.count = &fires;
  sim.schedule(p, ns(1));
  sim.run();
  sim.schedule(p, ns(2));  // same node, relinked after it fired
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, WakeInterleavesWithTimedEventsDeterministically) {
  Simulator sim;
  std::vector<int> order;
  struct Probe : EventNode {
    std::vector<int>* out = nullptr;
    int id = 0;
    static void run(EventNode& e) {
      auto& p = static_cast<Probe&>(e);
      p.out->push_back(p.id);
    }
  };
  Probe a, b;
  a.fire = b.fire = &Probe::run;
  a.out = b.out = &order;
  a.id = 1;
  b.id = 2;
  // A task's timer at t=5 fires first and wakes `a` (zero-delay, so still
  // t=5); `b`, linked at t=5 before that wake, must fire before `a`.
  sim.spawn(run_at(&sim, ns(5), [&] { sim.wake(a); }));
  sim.run_until(TimePs{});  // start the task: its timer is linked before b
  sim.schedule(b, ns(5));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

// Regression: a producer parked in push() on a full channel must be woken by
// close() and see a failed push, instead of staying parked forever (its
// frame used to leak at ~Simulator, and pipelines never learned their
// downstream died).
TEST(Channel, CloseWakesBlockedProducer) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  bool push1_ok = false;
  bool push2_ok = true;
  bool producer_finished = false;
  auto producer = [&]() -> Task {
    push1_ok = co_await ch.push(1);   // fills the channel
    push2_ok = co_await ch.push(2);   // parks: channel full, no consumer
    producer_finished = true;
  };
  sim.spawn(producer());
  sim.spawn(run_at(&sim, ns(10), [&] { ch.close(); }));
  sim.run();
  EXPECT_TRUE(producer_finished);
  EXPECT_TRUE(push1_ok);
  EXPECT_FALSE(push2_ok);  // the parked value was dropped by close()
}

TEST(Channel, CloseWakesAllBlockedProducersInOrder) {
  Simulator sim;
  Channel<int> ch(sim, 1);
  std::vector<int> failed_order;
  auto producer = [&](int id) -> Task {
    if (!co_await ch.push(id)) {  // only the first fill succeeds
      failed_order.push_back(id);
      co_return;
    }
    if (!co_await ch.push(id + 100)) failed_order.push_back(id);
  };
  sim.spawn(producer(1));
  sim.spawn(producer(2));
  sim.spawn(run_at(&sim, ns(10), [&] { ch.close(); }));
  sim.run();
  // Producer 1 filled the channel; both then parked (1 first) and close()
  // must wake them in park order with a failed push each.
  EXPECT_EQ(failed_order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace snacc::sim
