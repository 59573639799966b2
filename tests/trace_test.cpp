// Tracer tests: category filtering, bounded ring semantics, and end-to-end
// trace capture of a live streamer workload (submissions, completions,
// retirements in causal order).
#include <gtest/gtest.h>

#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"

namespace snacc {
namespace {

TEST(Tracer, DisabledByDefaultAndFilterable) {
  sim::Simulator sim;
  sim.trace(sim::TraceCat::kUser, "ignored");
  EXPECT_TRUE(sim.tracer().events().empty());

  sim.tracer().enable(static_cast<std::uint32_t>(sim::TraceCat::kUser));
  sim.trace(sim::TraceCat::kUser, "kept", 1, 2);
  sim.trace(sim::TraceCat::kEth, "filtered");
  ASSERT_EQ(sim.tracer().events().size(), 1u);
  EXPECT_STREQ(sim.tracer().events().front().label, "kept");
  EXPECT_EQ(sim.tracer().events().front().a, 1u);
  EXPECT_EQ(sim.tracer().events().front().b, 2u);
}

TEST(Tracer, RingDropsOldestAtCapacity) {
  sim::Simulator sim;
  sim.tracer().enable(static_cast<std::uint32_t>(sim::TraceCat::kUser),
                      /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    sim.trace(sim::TraceCat::kUser, "e", i);
  }
  ASSERT_EQ(sim.tracer().events().size(), 4u);
  EXPECT_EQ(sim.tracer().dropped(), 6u);
  EXPECT_EQ(sim.tracer().events().front().a, 6u);
  EXPECT_EQ(sim.tracer().events().back().a, 9u);
}

TEST(Tracer, CapturesStreamerWorkload) {
  host::System sys;
  host::SnaccDeviceConfig cfg;
  host::SnaccDevice dev(sys, cfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  ASSERT_TRUE(booted);

  sys.sim().tracer().enable(sim::TraceCat::kStreamerCmd |
                            sim::TraceCat::kStreamerRetire |
                            sim::TraceCat::kNvmeComplete);
  core::PeClient pe(dev.streamer());
  bool done = false;
  auto io = [&]() -> sim::Task {
    // 3 sub-commands each way.
    co_await pe.write(Bytes{}, Payload::phantom(3 * MiB));
    EXPECT_TRUE((co_await pe.read(Bytes{}, Bytes{3 * MiB})).ok);
    done = true;
  };
  sys.sim().spawn(io());
  sys.sim().run_until(sys.sim().now() + seconds(5));
  ASSERT_TRUE(done);

  auto& tracer = sys.sim().tracer();
  EXPECT_EQ(tracer.count(sim::TraceCat::kStreamerCmd), 6u);
  EXPECT_EQ(tracer.count(sim::TraceCat::kNvmeComplete), 6u);
  EXPECT_EQ(tracer.count(sim::TraceCat::kStreamerRetire), 6u);

  // Causality: timestamps are monotonic, and each command's submission
  // precedes some completion which precedes its retirement.
  TimePs last;
  for (const auto& e : tracer.events()) {
    EXPECT_GE(e.t, last);
    last = e.t;
  }
  EXPECT_STREQ(tracer.events().front().label, "submit-write");
}

}  // namespace
}  // namespace snacc
