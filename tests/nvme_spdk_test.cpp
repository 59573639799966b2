// Integration tests of the host -> PCIe -> NVMe path via the SPDK-style
// driver: controller bring-up through real admin commands, data integrity
// over PRP lists, MDTS splitting, out-of-order completion harvesting, and
// basic performance sanity (sequential read should be link-limited).
#include <gtest/gtest.h>

#include "host/system.hpp"
#include "spdk/driver.hpp"

namespace snacc {
namespace {

using host::System;
using spdk::Driver;
using spdk::WorkloadResult;

class SpdkFixture : public ::testing::Test {
 protected:
  void init_driver(spdk::DriverConfig cfg = {}) {
    driver_ = std::make_unique<Driver>(sys_.sim(), sys_.fabric(), sys_.host_mem(),
                                       host::addr_map::kHostDramBase, sys_.ssd(),
                                       sys_.config().profile.host, cfg);
    bool done = false;
    auto boot = [&]() -> sim::Task {
      co_await driver_->init();
      done = true;
    };
    sys_.sim().spawn(boot());
    sys_.sim().run_until(sys_.sim().now() + seconds(1));
    ASSERT_TRUE(done) << "driver init did not finish";
  }

  System sys_;
  std::unique_ptr<Driver> driver_;
};

TEST_F(SpdkFixture, InitCompletesAndIdentifies) {
  init_driver();
  EXPECT_TRUE(driver_->initialized());
  EXPECT_TRUE(sys_.ssd().ready());
  EXPECT_EQ(driver_->identify_data().max_transfer_bytes, 1 * MiB);
  EXPECT_EQ(driver_->identify_data().namespace_blocks,
            sys_.ssd().namespace_blocks());
}

TEST_F(SpdkFixture, SmallWriteReadRoundTrip) {
  init_driver();
  Payload data = Payload::filled(4096, 0xAB);
  bool done = false;
  nvme::Status wst{};
  spdk::ReadCompletion got;
  auto io = [&]() -> sim::Task {
    wst = co_await driver_->write(Lba{100}, data);
    got = co_await driver_->read(Lba{100}, Bytes{4096});
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(wst, nvme::Status::kSuccess);
  EXPECT_EQ(got.status, nvme::Status::kSuccess);
  ASSERT_TRUE(got.data.has_data());
  EXPECT_TRUE(got.data.content_equals(data));
}

TEST_F(SpdkFixture, LargeTransferUsesPrpListAndSurvivesRoundTrip) {
  init_driver();
  // 1 MiB => PRP1 + a 255-entry PRP list, the exact shape of Sec. 4.4.
  std::vector<std::byte> bytes(1 * MiB);
  Xoshiro256 rng(42);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.next() & 0xFF);
  Payload data = Payload::bytes(std::move(bytes));

  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await driver_->write(Lba{5000}, data);
    got = (co_await driver_->read(Lba{5000}, Bytes{1 * MiB})).data;
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data));
}

TEST_F(SpdkFixture, MultiCommandTransferSplitsAtMdts) {
  init_driver();
  // 3.5 MiB spans four commands (1+1+1+0.5).
  Payload data = Payload::filled(3 * MiB + 512 * KiB, 0x5C);
  bool done = false;
  Payload got;
  auto io = [&]() -> sim::Task {
    co_await driver_->write(Lba{}, data);
    got = (co_await driver_->read(Lba{}, Bytes{data.size()})).data;
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(2));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.content_equals(data));
  EXPECT_GE(sys_.ssd().commands_completed(), 8u);
}

TEST_F(SpdkFixture, OutOfRangeLbaFails) {
  init_driver();
  bool done = false;
  nvme::Status st{};
  auto io = [&]() -> sim::Task {
    st = co_await driver_->write(Lba{sys_.ssd().namespace_blocks() - 1},
                                 Payload::filled(8192, 1));
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(st, nvme::Status::kLbaOutOfRange);
}

TEST_F(SpdkFixture, SequentialReadIsLinkLimited) {
  init_driver();
  WorkloadResult res;
  bool done = false;
  auto io = [&]() -> sim::Task {
    co_await driver_->run_sequential(/*is_write=*/false, Lba{},
                                     Bytes{256 * MiB}, Bytes{1 * MiB}, &res);
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(5));
  ASSERT_TRUE(done);
  // Paper Fig. 4a: ~6.9 GB/s sequential read through SPDK.
  EXPECT_GT(res.bandwidth_gb_s(), 6.0);
  EXPECT_LT(res.bandwidth_gb_s(), 7.2);
}

TEST_F(SpdkFixture, SequentialWriteLandsInOneProgramMode) {
  init_driver();
  sys_.ssd().nand().force_mode(/*fast=*/true);
  WorkloadResult res;
  bool done = false;
  auto io = [&]() -> sim::Task {
    co_await driver_->run_sequential(/*is_write=*/true, Lba{},
                                     Bytes{256 * MiB}, Bytes{1 * MiB}, &res);
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(5));
  ASSERT_TRUE(done);
  // Paper Fig. 4a: 6.24 GB/s in the fast program mode via SPDK.
  EXPECT_NEAR(res.bandwidth_gb_s(), 6.24, 0.3);
}

TEST_F(SpdkFixture, RandomReadKeepsQueueDepthBusy) {
  init_driver();
  WorkloadResult res;
  bool done = false;
  auto io = [&]() -> sim::Task {
    co_await driver_->run_random(/*is_write=*/false, Bytes{64 * MiB},
                                 Bytes{4 * KiB},
                                 /*region_blocks=*/1u << 20, /*seed=*/7, &res);
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(5));
  ASSERT_TRUE(done);
  // Paper Fig. 4b: ~4.5 GB/s random 4 kB read at QD 64 via SPDK.
  EXPECT_GT(res.bandwidth_gb_s(), 3.5);
  EXPECT_LT(res.bandwidth_gb_s(), 5.5);
  EXPECT_EQ(res.commands, (64 * MiB) / (4 * KiB));
}

TEST_F(SpdkFixture, CpuThreadIsBusyDuringWorkload) {
  init_driver();
  WorkloadResult res;
  bool done = false;
  driver_->cpu().reset();
  TimePs t0;
  TimePs t1;
  auto io = [&]() -> sim::Task {
    t0 = sys_.sim().now();
    co_await driver_->run_sequential(false, Lba{}, Bytes{64 * MiB},
                                     Bytes{1 * MiB}, &res);
    t1 = sys_.sim().now();
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(5));
  ASSERT_TRUE(done);
  // The polling thread burns CPU the whole time (Sec. 6.3).
  EXPECT_GT(driver_->cpu().utilization(t1 - t0), 0.5);
}

TEST_F(SpdkFixture, IommuFaultOnUngrantedAccessFailsCommand) {
  init_driver();
  // Revoke the SSD's grant: payload fetches now fault.
  sys_.fabric().iommu().revoke_all(sys_.ssd().port());
  bool done = false;
  nvme::Status st{};
  auto io = [&]() -> sim::Task {
    st = co_await driver_->write(Lba{}, Payload::filled(4096, 9));
    done = true;
  };
  sys_.sim().spawn(io());
  sys_.sim().run_until(sys_.sim().now() + seconds(1));
  // The SQE fetch itself faults, so the command may never complete; either
  // way the fabric must have recorded faults and no data must reach media.
  EXPECT_GT(sys_.fabric().iommu().faults(), 0u);
  (void)done;
  EXPECT_EQ(sys_.ssd().media().resident_pages(), 0u);
}

}  // namespace
}  // namespace snacc
