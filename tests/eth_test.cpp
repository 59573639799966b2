// Ethernet MAC + 802.3x flow-control tests: line-rate throughput, pause
// assertion/release, losslessness under random consumer stalls (property),
// and pause propagation through a switch.
#include <gtest/gtest.h>

#include "common/calibration.hpp"
#include "common/rng.hpp"
#include "eth/switch.hpp"

namespace snacc::eth {
namespace {

/// A physical receiver FIFO size: the 192 KiB pause watermark must keep the
/// MAC's backlog below it.
constexpr std::uint64_t kRxFifoBytes = 256 * KiB;

struct LinkPair {
  explicit LinkPair(sim::Simulator& sim, const EthProfile& p)
      : a_to_b(sim, p), b_to_a(sim, p), a(sim, p, a_to_b, b_to_a, "a"),
        b(sim, p, b_to_a, a_to_b, "b") {
    a.start();
    b.start();
  }
  Wire a_to_b;
  Wire b_to_a;
  Mac a;
  Mac b;
};

TEST(Eth, FramesArriveInOrderWithContent) {
  sim::Simulator sim;
  EthProfile profile;
  LinkPair link(sim, profile);
  auto sender = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < 10; ++i) {
      co_await link.a.send(Frame(Payload::filled(1000, static_cast<std::uint8_t>(i)),
                                 1, i * 1000, i == 9));
    }
  };
  std::vector<std::uint64_t> offsets;
  bool saw_end = false;
  auto receiver = [&]() -> sim::Task {
    for (int i = 0; i < 10; ++i) {
      std::optional<Frame> f;
      co_await link.b.recv_accounted(&f);
      EXPECT_TRUE(f.has_value());
      if (!f) co_return;
      offsets.push_back(f->offset);
      saw_end = saw_end || f->end_of_object;
      EXPECT_TRUE(f->payload.content_equals(
          Payload::filled(1000, static_cast<std::uint8_t>(i))));
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  ASSERT_EQ(offsets.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(offsets[i], i * 1000);
  EXPECT_TRUE(saw_end);
}

TEST(Eth, ThroughputApproachesLineRate) {
  sim::Simulator sim;
  EthProfile profile;
  LinkPair link(sim, profile);
  const std::uint64_t kFrames = 4000;
  const std::uint64_t kBytes = profile.mtu;
  TimePs t_end;
  auto sender = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      co_await link.a.send(Frame(Payload::phantom(kBytes), 1, i * kBytes, false));
    }
  };
  auto receiver = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      std::optional<Frame> f;
      co_await link.b.recv_accounted(&f);
    }
    t_end = sim.now();
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  const double gbs = gb_per_s(kFrames * kBytes, t_end);
  EXPECT_GT(gbs, 12.5 * 0.95);  // goodput ~ line rate minus framing
  EXPECT_LE(gbs, 12.5);
}

TEST(Eth, SlowConsumerAssertsPauseAndNothingIsLost) {
  sim::Simulator sim;
  EthProfile profile;
  LinkPair link(sim, profile);
  const std::uint64_t kFrames = 600;
  std::uint64_t received = 0;
  auto sender = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      co_await link.a.send(Frame(Payload::phantom(profile.mtu), 1, i, false));
    }
  };
  auto receiver = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      std::optional<Frame> f;
      co_await link.b.recv_accounted(&f);
      EXPECT_TRUE(f.has_value());
      if (!f) co_return;
      EXPECT_EQ(f->offset, i) << "frame lost or reordered";
      ++received;
      co_await sim.delay(us(2));  // consume at ~2 GB/s << 12.5 GB/s line
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(received, kFrames);
  EXPECT_GT(link.b.pauses_sent(), 0u);
  EXPECT_GT(link.a.pauses_received(), 0u);
  // Receiver FIFO never exceeded its physical capacity.
  EXPECT_LE(link.b.rx_backlog_bytes(), kRxFifoBytes);
}

class EthLossless : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EthLossless, RandomStallsNeverDropFrames) {
  sim::Simulator sim;
  EthProfile profile;
  LinkPair link(sim, profile);
  Xoshiro256 rng(GetParam());
  const std::uint64_t kFrames = 400;
  std::uint64_t received = 0;
  std::uint64_t max_backlog = 0;
  auto sender = [&]() -> sim::Task {
    Xoshiro256 srng(GetParam() * 7 + 1);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      const std::uint64_t size = 64 + srng.below(profile.mtu - 64);
      co_await link.a.send(Frame(Payload::phantom(size), 1, i, false));
      if (srng.chance(0.1)) co_await sim.delay(us(srng.below(5)));
    }
  };
  auto receiver = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      std::optional<Frame> f;
      co_await link.b.recv_accounted(&f);
      EXPECT_TRUE(f.has_value());
      if (!f) co_return;
      EXPECT_EQ(f->offset, i);
      ++received;
      max_backlog = std::max<std::uint64_t>(max_backlog, link.b.rx_backlog_bytes());
      if (rng.chance(0.3)) co_await sim.delay(us(rng.below(20)));
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(received, kFrames);
  EXPECT_LE(max_backlog, kRxFifoBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EthLossless, ::testing::Values(1, 2, 3, 4, 5));

TEST(Eth, PausePropagatesThroughSwitch) {
  sim::Simulator sim;
  EthProfile profile;
  // endpoint A -- switch -- endpoint B, B consumes slowly.
  Wire a_out(sim, profile), a_in(sim, profile);
  Wire b_out(sim, profile), b_in(sim, profile);
  Mac a(sim, profile, a_out, a_in, "A");
  Mac b(sim, profile, b_out, b_in, "B");
  // Switch port A receives from a_out and transmits to a_in, etc.
  Switch sw(sim, profile, a_out, a_in, b_out, b_in);
  a.start();
  b.start();
  sw.start();

  const std::uint64_t kFrames = 400;
  std::uint64_t received = 0;
  auto sender = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      co_await a.send(Frame(Payload::phantom(profile.mtu), 1, i, false));
    }
  };
  auto receiver = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      std::optional<Frame> f;
      co_await b.recv_accounted(&f);
      EXPECT_TRUE(f.has_value());
      if (!f) co_return;
      EXPECT_EQ(f->offset, i);
      ++received;
      co_await sim.delay(us(3));  // slow sink
    }
  };
  sim.spawn(sender());
  sim.spawn(receiver());
  sim.run();
  EXPECT_EQ(received, kFrames);
  // B paused the switch; the switch buffered, then paused A.
  EXPECT_GT(b.pauses_sent(), 0u);
  EXPECT_GT(a.pauses_received(), 0u);
}

}  // namespace
}  // namespace snacc::eth
