// Unit tests for the parallel kernel: SimCluster window planning, Mailbox
// transfer timing, credit backpressure across a domain boundary, close
// semantics in both directions (drain-at-shutdown, failed-push results,
// parked-waiter wakeups), and the seeded-merge determinism guarantee --
// the same topology + seed must be bit-identical for every worker thread
// count. Labeled "parallel" so the TSan CI job can select exactly the
// multi-threaded suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "run_at.hpp"

namespace snacc::sim {
namespace {

TEST(SimCluster, SingleDomainRunsLikeASimulator) {
  SimCluster cluster(1);
  Domain& d = cluster.domain(0);
  std::vector<int> order;
  d.spawn(run_at(&d, ns(30), [&] { order.push_back(3); }));
  d.spawn(run_at(&d, ns(10), [&] { order.push_back(1); }));
  d.spawn(run_at(&d, ns(10), [&] { order.push_back(2); }));
  cluster.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(d.now(), ns(30));
  EXPECT_TRUE(cluster.idle());
}

TEST(SimCluster, IndependentDomainsBothDrain) {
  SimCluster cluster(2);
  int a = 0, b = 0;
  Domain& d0 = cluster.domain(0);
  Domain& d1 = cluster.domain(1);
  d0.spawn(run_at(&d0, ns(5), [&] { a = 1; }));
  d1.spawn(run_at(&d1, ns(9), [&] { b = 1; }));
  cluster.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  // Two events per timed action: the task's start and its timer.
  EXPECT_EQ(cluster.events_processed(), 4u);
}

TEST(SimCluster, RunUntilAdvancesEveryClockToHorizon) {
  SimCluster cluster(2);
  int fired = 0;
  Domain& d = cluster.domain(0);
  d.spawn(run_at(&d, us(1), [&] { ++fired; }));
  d.spawn(run_at(&d, us(3), [&] { ++fired; }));
  cluster.run_until(us(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cluster.domain(0).now(), us(2));
  EXPECT_EQ(cluster.domain(1).now(), us(2));
  cluster.run();
  EXPECT_EQ(fired, 2);
}

TEST(Mailbox, ValueArrivesAfterLinkLatency) {
  SimCluster cluster(2);
  Domain& p = cluster.domain(0);
  Domain& c = cluster.domain(1);
  Mailbox<int> mb(p, c, 4, ns(500));

  TimePs arrived;
  int got = 0;
  auto producer = [&]() -> Task {
    co_await p.delay(ns(100));
    co_await mb.push(42);
  };
  auto consumer = [&]() -> Task {
    auto v = co_await mb.pop();
    EXPECT_TRUE(v.has_value());
    if (v) got = *v;
    arrived = c.now();
  };
  p.spawn(producer());
  c.spawn(consumer());
  cluster.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(arrived, ns(600));  // pushed at 100, +500 link latency
}

TEST(Mailbox, FifoOrderAcrossTheBoundary) {
  SimCluster cluster(2);
  Mailbox<int> mb(cluster.domain(0), cluster.domain(1), 8, ns(100));
  std::vector<int> got;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 6; ++i) co_await mb.push(i);
    mb.close();
  };
  auto consumer = [&]() -> Task {
    while (auto v = co_await mb.pop()) got.push_back(*v);
  };
  cluster.domain(0).spawn(producer());
  cluster.domain(1).spawn(consumer());
  cluster.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Mailbox, CreditBackpressureParksAndResumesProducer) {
  SimCluster cluster(2);
  Domain& p = cluster.domain(0);
  Domain& c = cluster.domain(1);
  Mailbox<int> mb(p, c, /*capacity=*/1, ns(100));

  std::vector<TimePs> push_done;
  auto producer = [&]() -> Task {
    for (int i = 0; i < 3; ++i) {
      bool ok = co_await mb.push(i);
      EXPECT_TRUE(ok);
      push_done.push_back(p.now());
    }
    mb.close();
  };
  std::vector<int> got;
  auto consumer = [&]() -> Task {
    while (auto v = co_await mb.pop()) {
      got.push_back(*v);
      co_await c.delay(ns(1000));  // slow consumer forces producer parking
    }
  };
  p.spawn(producer());
  c.spawn(consumer());
  cluster.run();

  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(push_done.size(), 3u);
  // First push has the free credit and completes at t=0. The second parks
  // until the first value's pop (t=100 arrival) returns a credit at
  // 100 + latency = 200. The third parks behind the second value's pop
  // (arrives 300, popped after the 1000ns stall at 1100) -> credit at 1200.
  EXPECT_EQ(push_done[0], ns(0));
  EXPECT_EQ(push_done[1], ns(200));
  EXPECT_EQ(push_done[2], ns(1200));
}

TEST(Mailbox, CloseDrainsInFlightValuesBeforeNullopt) {
  SimCluster cluster(2);
  Mailbox<int> mb(cluster.domain(0), cluster.domain(1), 8, ns(100));
  auto producer = [&]() -> Task {
    co_await mb.push(1);
    co_await mb.push(2);
    mb.close();  // marker trails the two values through the same link
    co_return;
  };
  std::vector<int> got;
  bool saw_end = false;
  auto consumer = [&]() -> Task {
    for (;;) {
      auto v = co_await mb.pop();
      if (!v) {
        saw_end = true;
        break;
      }
      got.push_back(*v);
    }
  };
  cluster.domain(0).spawn(producer());
  cluster.domain(1).spawn(consumer());
  cluster.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(mb.rx_closed());
}

TEST(Mailbox, CloseFailsParkedProducerImmediately) {
  SimCluster cluster(2);
  Domain& p = cluster.domain(0);
  Mailbox<int> mb(p, cluster.domain(1), /*capacity=*/1, ns(100));

  bool parked_result = true;
  auto producer = [&]() -> Task {
    EXPECT_TRUE(co_await mb.push(1));      // takes the only credit
    parked_result = co_await mb.push(2);   // parks -- no credit left
  };
  auto closer = [&]() -> Task {
    co_await p.delay(ns(50));
    mb.close();
    co_return;
  };
  p.spawn(producer());
  p.spawn(closer());
  // No consumer pops, so no credit ever comes back; only close() can
  // resolve the parked push.
  cluster.run();
  EXPECT_FALSE(parked_result);
}

TEST(Mailbox, CloseRxFailsSubsequentAndParkedPushes) {
  SimCluster cluster(2);
  Domain& p = cluster.domain(0);
  Domain& c = cluster.domain(1);
  Mailbox<int> mb(p, c, /*capacity=*/1, ns(100));

  std::vector<bool> results;
  auto producer = [&]() -> Task {
    results.push_back(co_await mb.push(1));  // accepted (credit available)
    results.push_back(co_await mb.push(2));  // parks; failed by hangup
    results.push_back(co_await mb.push(3));  // after hangup: fails fast
  };
  auto consumer = [&]() -> Task {
    co_await c.delay(ns(50));
    mb.close_rx();
    co_return;
  };
  p.spawn(producer());
  c.spawn(consumer());
  cluster.run();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);  // parked producer woken with failed push
  EXPECT_FALSE(results[2]);
  EXPECT_TRUE(mb.peer_closed());
}

TEST(Mailbox, CloseRxWakesParkedConsumerWithNullopt) {
  SimCluster cluster(2);
  Domain& c = cluster.domain(1);
  Mailbox<int> mb(cluster.domain(0), c, 4, ns(100));
  bool got_nullopt = false;
  auto consumer = [&]() -> Task {
    auto v = co_await mb.pop();  // parks -- nothing was ever pushed
    got_nullopt = !v.has_value();
  };
  auto hangup = [&]() -> Task {
    co_await c.delay(ns(10));
    mb.close_rx();
    co_return;
  };
  c.spawn(consumer());
  c.spawn(hangup());
  cluster.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Mailbox, TeardownWithRecordsStillInFlight) {
  // A mailbox destroyed while deliveries are linked in the peer domain's
  // heap must withdraw them (no dangling EventNodes in ~Domain).
  SimCluster cluster(2);
  {
    Mailbox<int> mb(cluster.domain(0), cluster.domain(1), 4, ns(100));
    auto producer = [&]() -> Task {
      co_await mb.push(7);
      co_return;
    };
    cluster.domain(0).spawn(producer());
    cluster.run_until(ns(150));  // value now linked in domain 1's heap
  }
  cluster.run();  // must not fire into the dead mailbox
}

// -- Determinism across worker thread counts -------------------------------

/// A little 3-domain pipeline with contention: two producer domains feed one
/// consumer domain through separate mailboxes at the same link latency, with
/// seeded pseudo-random spacing, so merge ordering actually matters. Returns
/// the consumer's observation log.
std::string run_pipeline(unsigned threads, std::uint64_t seed) {
  SimCluster cluster(3, threads);
  Domain& pa = cluster.domain(0);
  Domain& pb = cluster.domain(1);
  Domain& c = cluster.domain(2);
  Mailbox<std::uint64_t> ma(pa, c, 2, ns(100));
  Mailbox<std::uint64_t> mb(pb, c, 2, ns(100));

  auto producer = [](Domain& d, Mailbox<std::uint64_t>& m,
                     std::uint64_t lcg) -> Task {
    for (int i = 0; i < 40; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      co_await d.delay(TimePs{(lcg >> 33) % 250});
      if (!co_await m.push(lcg >> 40)) break;
    }
    m.close();
  };
  std::string log;
  auto consumer = [&]() -> Task {
    bool a_open = true, b_open = true;
    while (a_open || b_open) {
      if (a_open) {
        if (auto v = co_await ma.pop()) {
          log += 'a' + std::to_string(c.now().value() % 100000) +
                 ':' + std::to_string(*v) + ' ';
        } else {
          a_open = false;
        }
      }
      if (b_open) {
        if (auto v = co_await mb.pop()) {
          log += 'b' + std::to_string(c.now().value() % 100000) +
                 ':' + std::to_string(*v) + ' ';
        } else {
          b_open = false;
        }
      }
    }
  };
  pa.spawn(producer(pa, ma, seed));
  pb.spawn(producer(pb, mb, seed ^ 0x9e3779b97f4a7c15ull));
  c.spawn(consumer());
  cluster.run();
  log += "| events=" + std::to_string(cluster.events_processed());
  return log;
}

TEST(SimCluster, BitIdenticalAcrossThreadCounts) {
  const std::string one = run_pipeline(1, 12345);
  EXPECT_EQ(one, run_pipeline(2, 12345)) << "1 vs 2 workers diverged";
  EXPECT_EQ(one, run_pipeline(3, 12345)) << "1 vs 3 workers diverged";
  EXPECT_EQ(one, run_pipeline(1, 12345)) << "re-run with same seed diverged";
  EXPECT_NE(one, run_pipeline(1, 54321)) << "seed has no effect?";
}

#ifndef NDEBUG
TEST(DomainDeathTest, FrameResumedOnWrongDomainFailsFast) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SimCluster cluster(2);
        EventNode n;
        cluster.domain(0).schedule(n, ns(1));
        cluster.domain(0).cancel(n);
        cluster.domain(1).schedule(n, ns(1));  // sticky owner assert fires
      },
      "domain other than its owner");
}

// A push after the producer's own close() is a programming error, as with
// Channel::push: it asserts. A release build reports it as a failed push.
TEST(MailboxDeathTest, PushAfterOwnCloseFailsFast) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        SimCluster cluster(2);
        Mailbox<int> mb(cluster.domain(0), cluster.domain(1), 4, ns(100));
        mb.close();
        (void)mb.push(1);
      },
      "closed_tx_");
}
#endif

}  // namespace
}  // namespace snacc::sim
