// Tests for the Sec. 7 extensions: multi-SSD striping, the HBM buffer
// variant, out-of-order retirement and the PCIe Gen5 profile.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "snacc/striped_client.hpp"

namespace snacc {
namespace {

using core::StripedClient;
using core::Variant;
using host::SnaccDevice;
using host::SnaccDeviceConfig;
using host::System;

/// Builds a system with `n` SSDs, one streamer per SSD sharing the FPGA's
/// PCIe port, and returns the initialized devices. Each streamer retries a
/// failed command once before it quarantines it (docs/FAULTS.md).
struct MultiBed {
  explicit MultiBed(std::uint32_t n, Variant variant = Variant::kHostDram) {
    host::SystemConfig cfg;
    cfg.ssd_count = n;
    cfg.host_memory_bytes = 4 * GiB;
    sys = std::make_unique<System>(cfg);
    pcie::PortId shared = pcie::kInvalidPort;
    for (std::uint32_t i = 0; i < n; ++i) {
      sys->ssd(i).nand().force_mode(true);
      SnaccDeviceConfig dcfg;
      dcfg.streamer.variant = variant;
      dcfg.streamer.max_retries = 1;
      dcfg.streamer.retry_backoff = us(2);
      dcfg.ssd_index = i;
      dcfg.instance = i;
      dcfg.shared_fpga_port = shared;
      devices.push_back(std::make_unique<SnaccDevice>(*sys, dcfg));
      shared = devices.back()->fpga_port();
    }
    int booted = 0;
    for (auto& dev : devices) {
      auto boot = [](SnaccDevice* d, int* count) -> sim::Task {
        co_await d->init();
        ++*count;
      };
      sys->sim().spawn(boot(dev.get(), &booted));
    }
    sys->sim().run_until(seconds(1));
    EXPECT_EQ(booted, static_cast<int>(n));
    std::vector<core::NvmeStreamer*> streamers;
    for (auto& dev : devices) streamers.push_back(&dev->streamer());
    striped = std::make_unique<StripedClient>(streamers);
  }

  void run_for(TimePs d) { sys->sim().run_until(sys->sim().now() + d); }

  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<SnaccDevice>> devices;
  std::unique_ptr<StripedClient> striped;
};

TEST(MultiSsd, StripedWriteReadRoundTrip) {
  MultiBed bed(2);
  Xoshiro256 rng(9);
  std::vector<std::byte> bytes(3 * MiB + 8 * KiB);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.next() & 0xFF);
  Payload data = Payload::bytes(std::move(bytes));
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await bed.striped->write(Bytes{}, data);
    got = (co_await bed.striped->read(Bytes{}, Bytes{data.size()})).data;
    done = true;
  };
  bed.sys->sim().spawn(io());
  bed.run_for(seconds(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data));
  // Both SSDs participated: stripes 0,2 on SSD0; 1,3 on SSD1.
  EXPECT_GT(bed.sys->ssd(0).media().resident_pages(), 0u);
  EXPECT_GT(bed.sys->ssd(1).media().resident_pages(), 0u);
}

// A fault on one device of two must reach the caller: its stripe comes
// back quarantined (read) or its response token poisoned (write), while
// the other device's stripe succeeds.
TEST(MultiSsd, ReadFaultOnOneDeviceSurfacesAsError) {
  MultiBed bed(2);
  const Payload data = Payload::filled(2 * MiB, 0x6B);  // one stripe each
  bool wrote = false;
  bool done = false;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    wrote = co_await bed.striped->write(Bytes{}, data);
    // Every page read on SSD 1 fails: its stripe exhausts the retry and
    // is quarantined.
    bed.sys->ssd(1).nand().set_read_fault_plan(fault::FaultPlan::rate(1.0));
    got = co_await bed.striped->read(Bytes{}, Bytes{data.size()});
    done = true;
  };
  bed.sys->sim().spawn(io());
  bed.run_for(seconds(2));
  ASSERT_TRUE(done) << "a quarantined stripe must not hang the read";
  EXPECT_TRUE(wrote);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.data.size(), data.size());  // stream framing intact
  EXPECT_EQ(bed.devices[0]->streamer().quarantined(), 0u);
  EXPECT_EQ(bed.devices[1]->streamer().quarantined(), 1u);
}

TEST(MultiSsd, ProgramFaultOnOneDeviceSurfacesAsError) {
  MultiBed bed(2);
  bool wrote = true;
  bool done = false;
  auto io = [&]() -> sim::Task {
    bed.sys->ssd(1).nand().set_program_fault_plan(fault::FaultPlan::rate(1.0));
    wrote = co_await bed.striped->write(Bytes{},
                                        Payload::filled(2 * MiB, 0x6C));
    done = true;
  };
  bed.sys->sim().spawn(io());
  bed.run_for(seconds(2));
  ASSERT_TRUE(done);
  EXPECT_FALSE(wrote);
  EXPECT_EQ(bed.devices[0]->streamer().quarantined(), 0u);
  EXPECT_EQ(bed.devices[1]->streamer().quarantined(), 1u);
}

TEST(MultiSsd, LocateStripesRoundRobin) {
  MultiBed bed(4);
  const Bytes stripe = core::kMaxTransfer;
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto loc = bed.striped->locate(stripe * i);
    EXPECT_EQ(loc.device, i % 4);
    EXPECT_EQ(loc.addr.value(), (stripe * (i / 4)).value());
  }
  auto mid = bed.striped->locate(stripe * 5 + Bytes{777});
  EXPECT_EQ(mid.device, 1u);
  EXPECT_EQ(mid.addr.value(), (stripe + Bytes{777}).value());
}

TEST(MultiSsd, WriteBandwidthScalesAcrossSsds) {
  const std::uint64_t total = 256 * MiB;
  double gbs1 = 0;
  double gbs2 = 0;
  for (std::uint32_t n : {1u, 2u}) {
    MultiBed bed(n);
    bool done = false;
    TimePs t0;
    TimePs t1;
    auto io = [&]() -> sim::Task {
      t0 = bed.sys->sim().now();
      co_await bed.striped->write(Bytes{}, Payload::phantom(total));
      t1 = bed.sys->sim().now();
      done = true;
    };
    bed.sys->sim().spawn(io());
    bed.run_for(seconds(10));
    ASSERT_TRUE(done);
    (n == 1 ? gbs1 : gbs2) = gb_per_s(total, t1 - t0);
  }
  // Sec. 7: multiple SSDs "better saturate PCIe bandwidth".
  EXPECT_GT(gbs2, gbs1 * 1.6);
}

TEST(HbmVariant, RoundTripAndSequentialWrite) {
  host::SystemConfig scfg;
  System sys(scfg);
  sys.ssd().nand().force_mode(true);
  SnaccDeviceConfig dcfg;
  dcfg.streamer.variant = Variant::kHbm;
  SnaccDevice dev(sys, dcfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  ASSERT_TRUE(booted);

  core::PeClient pe(dev.streamer());
  Payload data = Payload::filled(1 * MiB, 0x5A);
  bool done = false;
  Payload got;
  TimePs t0;
  TimePs t1;
  auto io = [&]() -> sim::Task {
    co_await pe.write(Bytes{}, data);
    got = (co_await pe.read(Bytes{}, Bytes{data.size()})).data;
    t0 = sys.sim().now();
    co_await pe.write(Bytes{16 * MiB}, Payload::phantom(256 * MiB));
    t1 = sys.sim().now();
    done = true;
  };
  sys.sim().spawn(io());
  sys.sim().run_until(sys.sim().now() + seconds(10));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
  // Sec. 7 prediction: HBM removes the DRAM-turnaround penalty, so the
  // write bandwidth recovers to the URAM variant's P2P-limited ~5.6 GB/s
  // while keeping the large 64 MB buffers.
  const double gbs = gb_per_s(256 * MiB, t1 - t0);
  EXPECT_GT(gbs, 5.2);
  EXPECT_LT(gbs, 6.0);
}

TEST(OutOfOrder, RandomReadThroughputImproves) {
  auto run_rand = [](bool ooo) {
    host::SystemConfig scfg;
    System sys(scfg);
    sys.ssd().nand().force_mode(true);
    SnaccDeviceConfig dcfg;
    dcfg.streamer.variant = Variant::kHostDram;
    dcfg.streamer.out_of_order = ooo;
    SnaccDevice dev(sys, dcfg);
    bool booted = false;
    auto boot = [&]() -> sim::Task {
      co_await dev.init();
      booted = true;
    };
    sys.sim().spawn(boot());
    sys.sim().run_until(seconds(1));
    EXPECT_TRUE(booted);
    core::PeClient pe(dev.streamer());

    const std::uint64_t kCommands = 8192;
    bool done = false;
    TimePs t0 = sys.sim().now();
    TimePs t1;
    struct Issuer {
      static sim::Task run(core::PeClient* pe, std::uint64_t n) {
        Xoshiro256 rng(77);
        for (std::uint64_t i = 0; i < n; ++i) {
          co_await pe->start_read(Bytes{rng.below(1u << 20) * 4096ull}, Bytes{4096});
        }
      }
    };
    auto collect = [&]() -> sim::Task {
      for (std::uint64_t i = 0; i < kCommands; ++i) {
        co_await pe.collect_read(nullptr);
      }
      t1 = sys.sim().now();
      done = true;
    };
    sys.sim().spawn(Issuer::run(&pe, kCommands));
    sys.sim().spawn(collect());
    sys.sim().run_until(sys.sim().now() + seconds(10));
    EXPECT_TRUE(done);
    return gb_per_s(kCommands * 4096, t1 - t0);
  };
  const double in_order = run_rand(false);
  const double out_of_order = run_rand(true);
  // Paper Sec. 7: out-of-order retirement lifts the ~1.6 GB/s random-read
  // limit toward the SPDK level.
  EXPECT_GT(out_of_order, in_order * 1.8);
}

TEST(Gen5Profile, SequentialReadScalesWithTheLink) {
  host::SystemConfig scfg;
  scfg.profile = CalibrationProfile::gen5();
  System sys(scfg);
  sys.ssd().nand().force_mode(true);
  SnaccDeviceConfig dcfg;
  dcfg.streamer.variant = Variant::kHostDram;
  SnaccDevice dev(sys, dcfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  ASSERT_TRUE(booted);
  core::PeClient pe(dev.streamer());
  bool done = false;
  TimePs t0;
  TimePs t1;
  auto io = [&]() -> sim::Task {
    co_await pe.write(Bytes{}, Payload::phantom(256 * MiB));
    t0 = sys.sim().now();
    EXPECT_TRUE((co_await pe.read(Bytes{}, Bytes{256 * MiB})).ok);
    t1 = sys.sim().now();
    done = true;
  };
  sys.sim().spawn(io());
  sys.sim().run_until(sys.sim().now() + seconds(10));
  ASSERT_TRUE(done);
  // Sec. 7: "current NVMe SSDs support PCIe Gen5 x4, doubling the
  // bandwidth... our implementation can accommodate these SSDs without
  // modifications".
  EXPECT_GT(gb_per_s(256 * MiB, t1 - t0), 11.0);
}

}  // namespace
}  // namespace snacc
