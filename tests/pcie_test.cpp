// Unit tests for the PCIe fabric: routing, BAR mapping, read/write data
// integrity, link-bandwidth conservation, latency selection (host vs P2P),
// IOMMU enforcement and traffic accounting.
#include <gtest/gtest.h>

#include "common/calibration.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory_target.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace snacc::pcie {
namespace {

struct Fixture : ::testing::Test {
  Fixture()
      : fabric(sim, PcieProfile{}),
        host_mem(sim, 64 * MiB),
        dev_mem(sim, 16 * MiB) {
    root = fabric.add_port("root", 64.0);
    fabric.set_root_port(root);
    dev = fabric.add_port("dev", 13.0);
    peer = fabric.add_port("peer", 7.0);
    fabric.map(Addr{}, Bytes{64 * MiB}, &host_mem, root, MemKind::kHostDram);
    fabric.map(Addr{0x1000'0000}, Bytes{16 * MiB}, &dev_mem, dev,
               MemKind::kFpgaUram);
  }

  sim::Simulator sim;
  Fabric fabric;
  HostMemory host_mem;
  HostMemory dev_mem;  // reuse HostMemory as a simple BAR-backed store
  PortId root{};
  PortId dev{};
  PortId peer{};
};

TEST_F(Fixture, WriteThenReadRoundTripsThroughHostMemory) {
  Payload data = Payload::filled(8192, 0x3C);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await fabric.write(root, Addr{0x1000}, data);
    auto rr = co_await fabric.read(root, Addr{0x1000}, Bytes{8192});
    got = std::move(rr.data);
    done = rr.ok;
  };
  sim.spawn(io());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
}

TEST_F(Fixture, RoutingSelectsWindowByAddress) {
  bool ok_dev = false;
  auto io = [&]() -> sim::Task {
    co_await fabric.write(root, Addr{0x1000'0000} + Bytes{4096},
                          Payload::filled(64, 9));
    auto rr = co_await fabric.read(root, Addr{0x1000'0000} + Bytes{4096},
                                   Bytes{64});
    ok_dev = rr.ok && rr.data.content_equals(Payload::filled(64, 9));
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(ok_dev);
  // Host memory at the same local offset is untouched.
  EXPECT_EQ(host_mem.store().resident_pages(), 0u);
}

TEST_F(Fixture, UnmappedAddressFailsTheRead) {
  bool got_not_ok = false;
  auto io = [&]() -> sim::Task {
    auto rr = co_await fabric.read(root, Addr{0x9999'0000'0000}, Bytes{64});
    got_not_ok = !rr.ok && !rr.data.has_data();
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(got_not_ok);
  EXPECT_EQ(fabric.unmapped_errors(), 1u);
}

TEST_F(Fixture, DeviceInitiatedAccessRequiresIommuGrant) {
  std::uint64_t faults_before = fabric.iommu().faults();
  bool first_failed = false;
  bool second_ok = false;
  auto io = [&]() -> sim::Task {
    auto rr1 = co_await fabric.read(dev, Addr{0x2000}, Bytes{512});
    first_failed = !rr1.ok;
    fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
    auto rr2 = co_await fabric.read(dev, Addr{0x2000}, Bytes{512});
    second_ok = rr2.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(first_failed);
  EXPECT_TRUE(second_ok);
  EXPECT_EQ(fabric.iommu().faults(), faults_before + 1);
}

TEST_F(Fixture, ReadOnlyGrantRejectsWrites) {
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, false});
  auto io = [&]() -> sim::Task {
    co_await fabric.write(dev, Addr{0x3000}, Payload::filled(4096, 7));
  };
  sim.spawn(io());
  sim.run();
  EXPECT_EQ(fabric.iommu().faults(), 1u);
  EXPECT_EQ(host_mem.store().resident_pages(), 0u);  // write was dropped
}

TEST_F(Fixture, DisabledIommuAllowsEverything) {
  fabric.iommu().set_enabled(false);
  bool ok = false;
  auto io = [&]() -> sim::Task {
    co_await fabric.write(dev, Addr{0x4000}, Payload::filled(4096, 1));
    auto rr = co_await fabric.read(peer, Addr{0x4000}, Bytes{4096});
    ok = rr.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fabric.iommu().faults(), 0u);
}

TEST_F(Fixture, HostPathIsFasterThanPeerToPeer) {
  PcieProfile profile;
  EXPECT_EQ(fabric.read_rtt(root, dev), profile.host_read_rtt);
  EXPECT_EQ(fabric.read_rtt(dev, root), profile.host_read_rtt);
  EXPECT_EQ(fabric.read_rtt(dev, peer), profile.p2p_read_rtt);
  EXPECT_GT(profile.p2p_read_rtt, profile.host_read_rtt);
}

TEST_F(Fixture, TrafficAccountingMatchesTransfers) {
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  auto io = [&]() -> sim::Task {
    for (int i = 0; i < 4; ++i) {
      co_await fabric.write(dev, Addr{0x8000} + Bytes{4096} * std::uint64_t(i),
                            Payload::phantom(4096));
    }
    (void)co_await fabric.read(dev, Addr{0x8000}, Bytes{8192});
  };
  sim.spawn(io());
  sim.run();
  const PathStats& stats = fabric.path(dev, root);
  EXPECT_EQ(stats.write_bytes, 4u * 4096);
  EXPECT_EQ(stats.read_bytes, 8192u);
  EXPECT_EQ(stats.writes, 4u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(fabric.total_bytes(), 4u * 4096 + 8192);
}

TEST_F(Fixture, BulkWritesAreLinkRateLimited) {
  // 64 MiB through the dev link at 13 GB/s (plus header overhead) should
  // take at least bytes/rate.
  const std::uint64_t total = 64 * MiB;
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  TimePs t_end;
  auto io = [&]() -> sim::Task {
    sim::WaitGroup wg(sim);
    const std::uint64_t chunk = 1 * MiB;
    wg.add(static_cast<int>(total / chunk));
    for (std::uint64_t off = 0; off < total; off += chunk) {
      auto issue = [](Fabric* f, PortId p, pcie::Addr a, std::uint64_t n,
                      sim::WaitGroup* g) -> sim::Task {
        co_await f->write(p, a, Payload::phantom(n));
        g->done();
      };
      sim.spawn(issue(&fabric, dev, Addr{off % (32 * MiB)}, chunk, &wg));
    }
    co_await wg.wait();
    t_end = sim.now();
  };
  sim.spawn(io());
  sim.run();
  const double gbs = gb_per_s(total, t_end);
  EXPECT_LT(gbs, 13.0);
  EXPECT_GT(gbs, 11.5);
}

// A transaction is a plain task: one spawned transaction costs its own start
// event plus one event per timed step, with no helper start or completion
// wake in between. A spawn or wake hop that comes back fails these counts.
TEST_F(Fixture, TransactionsCostOnlyTheirTimedSteps) {
  const auto events_of = [&](sim::Task io) {
    const std::uint64_t before = sim.events_processed();
    sim.spawn(std::move(io));
    sim.run();
    return sim.events_processed() - before;
  };
  bool ok = false;
  // start, request TLP, rtt/2, target bus + access latency, completion on
  // the target's TX and the initiator's RX link, rtt/2.
  auto bulk_read = [&]() -> sim::Task {
    ok = (co_await fabric.read(root, Addr{0x1000'0000}, Bytes{8 * KiB})).ok;
  };
  EXPECT_EQ(events_of(bulk_read()), 8u);
  EXPECT_TRUE(ok);

  // start, initiator TX link, posted latency, target RX link, target bus +
  // access latency.
  fabric.iommu().grant({dev, Addr{}, Bytes{64 * MiB}, true, true});
  auto posted_write = [&]() -> sim::Task {
    co_await fabric.write(dev, Addr{0x5000}, Payload::filled(4096, 5));
  };
  EXPECT_EQ(events_of(posted_write()), 6u);
  EXPECT_EQ(fabric.path(dev, root).writes, 1u);

  // start, request TLP, rtt/2, target bus + access latency, interleaved
  // completion, rtt/2.
  ok = false;
  auto small_read = [&]() -> sim::Task {
    ok = (co_await fabric.read(dev, Addr{0x5000}, Bytes{64})).ok;
  };
  EXPECT_EQ(events_of(small_read()), 7u);
  EXPECT_TRUE(ok);
}

TEST_F(Fixture, KindAtReportsWindowKind) {
  EXPECT_EQ(fabric.kind_at(Addr{0x100}), MemKind::kHostDram);
  EXPECT_EQ(fabric.kind_at(Addr{0x1000'0000}), MemKind::kFpgaUram);
  EXPECT_EQ(fabric.kind_at(Addr{0x7777'0000'0000}), MemKind::kDevice);
  EXPECT_EQ(fabric.owner_at(Addr{0x100}), root);
  EXPECT_EQ(fabric.owner_at(Addr{0x1000'0000}), dev);
}

TEST_F(Fixture, UnmapRemovesWindow) {
  fabric.unmap(Addr{0x1000'0000});
  bool not_ok = false;
  auto io = [&]() -> sim::Task {
    auto rr = co_await fabric.read(root, Addr{0x1000'0000}, Bytes{64});
    not_ok = !rr.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(not_ok);
}

TEST_F(Fixture, WindowsMayTouchButNotOverlap) {
  const Addr dev_base{0x1000'0000};
  fabric.map(dev_base - Bytes{4 * KiB}, Bytes{4 * KiB}, &dev_mem, peer,
             MemKind::kDevice);
  fabric.map(dev_base + Bytes{16 * MiB}, Bytes{4 * KiB}, &dev_mem, peer,
             MemKind::kDevice);
  EXPECT_EQ(fabric.owner_at(dev_base - Bytes{1}), peer);
  EXPECT_EQ(fabric.owner_at(dev_base), dev);
  EXPECT_EQ(fabric.owner_at(dev_base + Bytes{16 * MiB - 1}), dev);
  EXPECT_EQ(fabric.owner_at(dev_base + Bytes{16 * MiB}), peer);
}

// A clash is a wiring bug, so map() aborts in release builds too instead of
// leaving an address to whichever window routing happens to find.
using FabricDeathTest = Fixture;

TEST_F(FabricDeathTest, OverlappingWindowFailsFast) {
  // Starts inside dev's window, like a second device's BAR placed inside
  // the first device's URAM window.
  EXPECT_DEATH(fabric.map(Addr{0x1080'0000}, Bytes{16 * MiB}, &dev_mem, peer,
                          MemKind::kFpgaUram),
               "window \\[0x10800000, 0x11800000\\) of port peer overlaps "
               "window \\[0x10000000, 0x11000000\\) of port dev");
  // Ends inside dev's window.
  EXPECT_DEATH(fabric.map(Addr{0x0f80'0000}, Bytes{16 * MiB}, &dev_mem, peer,
                          MemKind::kFpgaUram),
               "overlaps window \\[0x10000000, 0x11000000\\) of port dev");
}

TEST_F(FabricDeathTest, RepeatedBaseFailsFast) {
  EXPECT_DEATH(fabric.map(Addr{0x1000'0000}, Bytes{4 * KiB}, &dev_mem, peer,
                          MemKind::kDevice),
               "window \\[0x10000000, 0x10001000\\) of port peer overlaps "
               "window \\[0x10000000, 0x11000000\\) of port dev");
}

}  // namespace
}  // namespace snacc::pcie
