// Fault-injection framework tests (ctest label: faults): injector plan
// semantics and determinism, fabric-level fault records and injections
// (IOMMU drops, lost completions, link degradation), the reorder buffer's
// stale-completion absorption that backs the streamer's watchdog, and the
// streamer's answers to media errors and malformed PE packets in its
// default configuration.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory_target.hpp"
#include "sim/task.hpp"
#include "snacc/pe_client.hpp"
#include "snacc/reorder_buffer.hpp"

namespace snacc {
namespace {

using fault::FaultPlan;
using fault::Injector;

// ---------------------------------------------------------------------------
// Injector semantics

TEST(Injector, DisabledIsInertAndCountsNothing) {
  Injector inj;  // default: no plan, disarmed
  EXPECT_FALSE(inj.armed());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.fire());
  EXPECT_EQ(inj.events(), 0u);
  EXPECT_EQ(inj.fired(), 0u);
}

TEST(Injector, ScheduleFiresExactlyAtGivenIndices) {
  Injector inj(FaultPlan::at({0, 3, 5}));
  ASSERT_TRUE(inj.armed());
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(inj.fire());
  const std::vector<bool> want = {true, false, false, true,
                                  false, true, false, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(inj.events(), 8u);
  EXPECT_EQ(inj.fired(), 3u);
}

TEST(Injector, UnsortedAndDuplicatedScheduleStillFiresEveryIndex) {
  // The injector matches schedule entries against a monotone event counter;
  // before the constructor sorted and deduplicated the plan, a duplicate
  // entry ({3, 3, 5}) stalled the cursor at the second 3 forever and 5
  // never fired. User-authored plans are allowed to be messy.
  Injector inj(FaultPlan::at({5, 3, 3}));
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(inj.fire());
  const std::vector<bool> want = {false, false, false, true,
                                  false, true, false, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(inj.fired(), 2u);
}

TEST(Injector, RateDrawsAreDeterministicPerSeed) {
  Injector a(FaultPlan::rate(0.3, 42));
  Injector b(FaultPlan::rate(0.3, 42));
  std::uint64_t fired = 0;
  for (int i = 0; i < 2000; ++i) {
    const bool fa = a.fire();
    ASSERT_EQ(fa, b.fire()) << "same plan+seed must fire identically, i=" << i;
    fired += fa ? 1 : 0;
  }
  // Law of large numbers sanity: ~600 expected.
  EXPECT_GT(fired, 450u);
  EXPECT_LT(fired, 750u);

  // A different seed yields a different (but equally deterministic) stream.
  Injector c(FaultPlan::rate(0.3, 43));
  bool any_diff = false;
  Injector a2(FaultPlan::rate(0.3, 42));
  for (int i = 0; i < 2000; ++i) any_diff |= a2.fire() != c.fire();
  EXPECT_TRUE(any_diff);
}

TEST(Injector, ScheduleDoesNotShiftTheProbabilisticStream) {
  // The probability draw happens on every event even when the schedule
  // already fired it, so mixing sources keeps the random stream aligned.
  FaultPlan plain = FaultPlan::rate(0.5, 7);
  FaultPlan mixed = FaultPlan::rate(0.5, 7);
  mixed.schedule = {2};
  Injector a(plain);
  Injector b(mixed);
  for (int i = 0; i < 64; ++i) {
    const bool fa = a.fire();
    const bool fb = b.fire();
    if (i == 2) {
      EXPECT_TRUE(fb);
    } else {
      EXPECT_EQ(fa, fb) << "event " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Fabric-level faults

struct FabricFixture : ::testing::Test {
  FabricFixture()
      : fabric(sim, PcieProfile{}), host_mem(sim, 64 * MiB) {
    root = fabric.add_port("root", 64.0);
    fabric.set_root_port(root);
    dev = fabric.add_port("dev", 13.0);
    fabric.map(pcie::Addr{}, Bytes{64 * MiB}, &host_mem, root,
               pcie::MemKind::kHostDram);
  }

  sim::Simulator sim;
  pcie::Fabric fabric;
  pcie::HostMemory host_mem;
  pcie::PortId root{};
  pcie::PortId dev{};
};

TEST_F(FabricFixture, IommuWriteDropIsRecordedPerDeviceWithLastFault) {
  // Read-only grant: device writes are silently dropped on the wire (posted
  // semantics) -- but no longer silently *unaccounted*.
  fabric.iommu().grant({dev, pcie::Addr{}, Bytes{64 * MiB}, true, false});
  auto io = [&]() -> sim::Task {
    co_await fabric.write(dev, pcie::Addr{0x3000}, Payload::filled(4096, 7));
  };
  sim.spawn(io());
  sim.run();
  EXPECT_EQ(fabric.iommu().faults(), 1u);
  EXPECT_EQ(fabric.iommu().faults_for(dev), 1u);
  EXPECT_EQ(fabric.iommu().faults_for(root), 0u);
  EXPECT_EQ(fabric.port_faults(dev).iommu_write_drops, 1u);
  EXPECT_EQ(fabric.port_faults(dev).total(), 1u);
  EXPECT_EQ(fabric.port_faults(root).total(), 0u);
  ASSERT_TRUE(fabric.last_fault().has_value());
  const pcie::FaultRecord& rec = *fabric.last_fault();
  EXPECT_EQ(rec.kind, pcie::FaultKind::kIommuWriteDrop);
  EXPECT_EQ(rec.initiator, dev);
  EXPECT_EQ(rec.addr.value(), 0x3000u);
  EXPECT_EQ(rec.len.value(), 4096u);
  EXPECT_STREQ(pcie::fault_kind_name(rec.kind), "iommu-write-drop");
}

TEST_F(FabricFixture, UnmappedAccessesAreRecordedToo) {
  auto io = [&]() -> sim::Task {
    auto rr = co_await fabric.read(root, pcie::Addr{0x9999'0000'0000}, Bytes{64});
    EXPECT_FALSE(rr.ok);
  };
  sim.spawn(io());
  sim.run();
  EXPECT_EQ(fabric.port_faults(root).unmapped, 1u);
  ASSERT_TRUE(fabric.last_fault().has_value());
  EXPECT_EQ(fabric.last_fault()->kind, pcie::FaultKind::kUnmappedRead);
}

TEST_F(FabricFixture, InjectedReadLossStallsForCompletionTimeout) {
  fabric.iommu().set_enabled(false);
  fabric.set_read_loss_plan(FaultPlan::at({0}));
  bool first_ok = true;
  bool second_ok = false;
  TimePs first_elapsed;
  auto io = [&]() -> sim::Task {
    const TimePs t0 = sim.now();
    auto rr1 = co_await fabric.read(root, pcie::Addr{0x1000}, Bytes{512});
    first_elapsed = sim.now() - t0;
    first_ok = rr1.ok;
    auto rr2 = co_await fabric.read(root, pcie::Addr{0x1000}, Bytes{512});
    second_ok = rr2.ok;
  };
  sim.spawn(io());
  sim.run();
  EXPECT_FALSE(first_ok);
  EXPECT_TRUE(second_ok);
  EXPECT_GE(first_elapsed, fabric.profile().completion_timeout);
  EXPECT_EQ(fabric.injected_timeouts(), 1u);
  EXPECT_EQ(fabric.port_faults(root).completion_timeouts, 1u);
  ASSERT_TRUE(fabric.last_fault().has_value());
  EXPECT_EQ(fabric.last_fault()->kind, pcie::FaultKind::kCompletionTimeout);
}

TEST_F(FabricFixture, LinkDegradationSlowsTransfersThenRecovers) {
  fabric.iommu().set_enabled(false);
  const std::uint64_t bytes = 8 * MiB;
  TimePs healthy;
  TimePs degraded;
  TimePs recovered;
  auto io = [&]() -> sim::Task {
    TimePs t0 = sim.now();
    co_await fabric.write(dev, pcie::Addr{}, Payload::phantom(bytes));
    healthy = sim.now() - t0;

    fabric.degrade_link(dev, 0.25, seconds(10));
    t0 = sim.now();
    co_await fabric.write(dev, pcie::Addr{}, Payload::phantom(bytes));
    degraded = sim.now() - t0;

    co_await sim.delay(seconds(11));  // window expired, rate restored
    t0 = sim.now();
    co_await fabric.write(dev, pcie::Addr{}, Payload::phantom(bytes));
    recovered = sim.now() - t0;
  };
  sim.spawn(io());
  sim.run();
  // 4x rate cut: the paced portion takes ~4x longer while the window is
  // open (the fixed per-TLP latency component is unaffected, so the
  // end-to-end ratio lands a little under 4x).
  EXPECT_GT(degraded, healthy * 2);
  EXPECT_LT(recovered, healthy * 2);
}

TEST_F(FabricFixture, WindowedIommuFlipOnlyFiresInsideTheWindow) {
  fabric.iommu().grant({dev, pcie::Addr{}, Bytes{64 * MiB}, true, true});
  // Flip verdicts only for writes landing in [0x10000, 0x11000).
  fabric.iommu().set_fault_plan(FaultPlan::rate(1.0), pcie::Addr{0x10000},
                                Bytes{0x1000});
  bool outside_ok = false;
  auto io = [&]() -> sim::Task {
    co_await fabric.write(dev, pcie::Addr{0x10000}, Payload::filled(512, 1));  // dropped
    co_await fabric.write(dev, pcie::Addr{0x20000}, Payload::filled(512, 2));  // passes
    auto rr = co_await fabric.read(dev, pcie::Addr{0x20000}, Bytes{512});
    outside_ok = rr.ok && rr.data.content_equals(Payload::filled(512, 2));
  };
  sim.spawn(io());
  sim.run();
  EXPECT_TRUE(outside_ok);
  EXPECT_EQ(fabric.iommu().injected_faults(), 1u);
  EXPECT_EQ(fabric.port_faults(dev).iommu_write_drops, 1u);
  EXPECT_EQ(host_mem.store().read(0x10000, 512).has_data(), false);
}

// ---------------------------------------------------------------------------
// Reorder buffer recovery support

TEST(ReorderBuffer, StaleCompletionsAreAbsorbedNotAsserted) {
  sim::Simulator sim;
  core::ReorderBuffer rob(sim, 4);
  SlotIdx slot;
  auto setup = [&]() -> sim::Task {
    core::RobEntry e;
    slot = co_await rob.alloc(std::move(e));
  };
  sim.spawn(setup());
  sim.run();

  // First completion lands.
  EXPECT_TRUE(rob.complete(slot, nvme::Status::kSuccess));
  // A duplicate (e.g. the original command's CQE arriving after a watchdog
  // retry already completed the slot) is absorbed.
  EXPECT_FALSE(rob.complete(slot, nvme::Status::kSuccess));
  // A completion for a slot outside the in-flight window is stale too.
  EXPECT_FALSE(rob.complete(SlotIdx{2}, nvme::Status::kSuccess));
  EXPECT_EQ(rob.stale_completions(), 2u);
  EXPECT_TRUE(rob.head_ready());
}

TEST(ReorderBuffer, ReopenHeadClearsCompletionForRetry) {
  sim::Simulator sim;
  core::ReorderBuffer rob(sim, 4);
  SlotIdx slot;
  auto setup = [&]() -> sim::Task {
    core::RobEntry e;
    slot = co_await rob.alloc(std::move(e));
  };
  sim.spawn(setup());
  sim.run();

  rob.complete(slot, nvme::Status::kUnrecoveredReadError);
  ASSERT_TRUE(rob.head_ready());
  EXPECT_EQ(rob.head().status, nvme::Status::kUnrecoveredReadError);
  rob.reopen_head();
  EXPECT_FALSE(rob.head_ready());
  EXPECT_EQ(rob.head().status, nvme::Status::kSuccess);
  // The retried command's completion closes it again.
  EXPECT_TRUE(rob.complete(slot, nvme::Status::kSuccess));
  EXPECT_TRUE(rob.head_ready());
}

TEST(ReorderBuffer, FailHeadSynthesizesWatchdogCompletion) {
  sim::Simulator sim;
  core::ReorderBuffer rob(sim, 4);
  SlotIdx slot;
  auto setup = [&]() -> sim::Task {
    core::RobEntry e;
    slot = co_await rob.alloc(std::move(e));
  };
  sim.spawn(setup());
  sim.run();

  ASSERT_FALSE(rob.head_ready());
  rob.fail_head(nvme::Status::kWatchdogTimeout);
  ASSERT_TRUE(rob.head_ready());
  EXPECT_EQ(rob.head().status, nvme::Status::kWatchdogTimeout);
  // The genuinely-late CQE for the failed command is now stale.
  EXPECT_FALSE(rob.complete(slot, nvme::Status::kSuccess));
  EXPECT_EQ(rob.stale_completions(), 1u);
}

// ---------------------------------------------------------------------------
// The streamer answers every PE command, with its default configuration

/// A booted SNAcc device with the default SnaccDeviceConfig and a PE client.
class DefaultStreamer : public ::testing::Test {
 protected:
  explicit DefaultStreamer(core::StreamerConfig streamer = {})
      : dev_(sys_, host::SnaccDeviceConfig{.streamer = streamer}) {
    bool booted = false;
    auto boot = [&]() -> sim::Task {
      co_await dev_.init();
      booted = true;
    };
    sys_.sim().spawn(boot());
    run_for(seconds(1));
    EXPECT_TRUE(booted);
    client_ = std::make_unique<core::PeClient>(dev_.streamer());
  }

  void TearDown() override {
    if (!HasFailure()) dev_.streamer().check_invariants();
  }

  void run_for(TimePs d) { sys_.sim().run_until(sys_.sim().now() + d); }

  static Payload random_bytes(std::uint64_t size, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<std::byte> v(size);
    for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xFF);
    return Payload::bytes(std::move(v));
  }

  /// Writes `data` at `addr` and reads it back; true when both succeed and
  /// the bytes match.
  bool round_trip(Bytes addr, const Payload& data) {
    bool wrote = false;
    ReadResult got;
    bool done = false;
    auto io = [&]() -> sim::Task {
      wrote = co_await client_->write(addr, data);
      got = co_await client_->read(addr, Bytes{data.size()});
      done = true;
    };
    sys_.sim().spawn(io());
    run_for(seconds(1));
    return done && wrote && got.ok && got.data.has_data() &&
           got.data.content_equals(data);
  }

  /// Sends `data` to `addr` with TLAST on an empty beat after the last data
  /// beat; true when the PE gets a success token.
  bool write_with_empty_tlast(Bytes addr, const Payload& data) {
    core::NvmeStreamer& s = dev_.streamer();
    bool done = false;
    bool error = true;
    auto io = [&]() -> sim::Task {
      co_await s.write_in().send(
          axis::Chunk{core::encode_write_address(addr), false, 0});
      co_await axis::send_chunked(s.write_in(), data, Bytes{16 * KiB},
                                  /*final_last=*/false);
      co_await s.write_in().send(axis::Chunk{Payload{}, true, 0});
      co_await client_->wait_write_response(&error);
      done = true;
    };
    sys_.sim().spawn(io());
    run_for(seconds(1));
    return done && !error;
  }

  host::System sys_;
  host::SnaccDevice dev_;
  std::unique_ptr<core::PeClient> client_;
};

TEST_F(DefaultStreamer, ReadFaultIsRetriedAndReturnsStoredBytes) {
  const Payload data = random_bytes(4 * KiB, 31);
  bool done = false;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    EXPECT_TRUE(co_await client_->write(Bytes{64 * KiB}, data));
    sys_.ssd().nand().set_read_fault_plan(fault::FaultPlan::at({0}));
    got = co_await client_->read(Bytes{64 * KiB}, Bytes{4 * KiB});
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  EXPECT_TRUE(got.ok);
  ASSERT_TRUE(got.data.has_data()) << "a failed read must not pass as data";
  EXPECT_TRUE(got.data.content_equals(data));
  EXPECT_EQ(dev_.streamer().retries(), 1u);
  EXPECT_EQ(dev_.streamer().recovered(), 1u);
}

TEST_F(DefaultStreamer, PersistentReadFaultReturnsError) {
  bool done = false;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    EXPECT_TRUE(co_await client_->write(Bytes{}, random_bytes(4 * KiB, 32)));
    sys_.ssd().nand().set_read_fault_plan(fault::FaultPlan::rate(1.0));
    got = co_await client_->read(Bytes{}, Bytes{4 * KiB});
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.data.size(), 4 * KiB);  // stream framing intact
  EXPECT_EQ(dev_.streamer().quarantined(), 1u);
}

// A malformed packet is discarded through TLAST and answered with an error
// in command order; the stream stays aligned for the next command.

TEST_F(DefaultStreamer, MisalignedWriteWithDataIsAnsweredWithError) {
  bool done = false;
  bool ok = true;
  auto io = [&]() -> sim::Task {
    ok = co_await client_->write(Bytes{100}, random_bytes(32 * KiB, 33));
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done) << "the PE must get a response token";
  EXPECT_FALSE(ok);
  EXPECT_EQ(dev_.streamer().commands_submitted(), 0u);
  EXPECT_EQ(dev_.streamer().errors(), 1u);
  EXPECT_TRUE(round_trip(Bytes{}, random_bytes(32 * KiB, 34)));
}

TEST_F(DefaultStreamer, MisalignedPhantomWriteDoesNotReachAddressZero) {
  // A phantom beat decodes as address 0: read as an address beat, the
  // packet's data would land there.
  const Payload stored = random_bytes(64 * KiB, 35);
  ASSERT_TRUE(round_trip(Bytes{}, stored));
  const std::uint64_t written = dev_.streamer().bytes_written();
  bool done = false;
  bool ok = true;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    ok = co_await client_->write(Bytes{100}, Payload::phantom(64 * KiB));
    got = co_await client_->read(Bytes{}, Bytes{64 * KiB});
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(dev_.streamer().bytes_written(), written);
  EXPECT_TRUE(got.ok);
  ASSERT_TRUE(got.data.has_data()) << "phantom data overwrote address 0";
  EXPECT_TRUE(got.data.content_equals(stored));
  EXPECT_TRUE(round_trip(Bytes{1 * MiB}, random_bytes(16 * KiB, 36)));
}

TEST_F(DefaultStreamer, ZeroLengthReadIsAnsweredWithError) {
  bool done = false;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    got = co_await client_->read(Bytes{}, Bytes{});
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done) << "the PE must get a TLAST beat";
  EXPECT_FALSE(got.ok);
  EXPECT_EQ(got.data.size(), 0u);
  EXPECT_TRUE(round_trip(Bytes{}, random_bytes(8 * KiB, 37)));
}

TEST_F(DefaultStreamer, OtherMalformedWritePacketsAreAnswered) {
  core::NvmeStreamer& s = dev_.streamer();
  bool done = false;
  std::vector<bool> errors;
  auto io = [&]() -> sim::Task {
    auto response = [&]() -> sim::Task {
      bool error = false;
      co_await client_->wait_write_response(&error);
      errors.push_back(error);
    };
    // A flush beat that does not end its packet.
    co_await s.write_in().send(
        axis::Chunk{core::encode_flush_command(), false, 0});
    co_await s.write_in().send(axis::Chunk{Payload::filled(64, 1), true, 0});
    co_await response();
    // An address beat with TLAST: no data beats.
    co_await s.write_in().send(
        axis::Chunk{core::encode_write_address(Bytes{}), true, 0});
    co_await response();
    // Only an empty data beat.
    co_await s.write_in().send(
        axis::Chunk{core::encode_write_address(Bytes{}), false, 0});
    co_await s.write_in().send(axis::Chunk{Payload{}, true, 0});
    co_await response();
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  EXPECT_EQ(errors, std::vector<bool>(3, true));
  EXPECT_EQ(s.commands_submitted(), 0u);
  EXPECT_EQ(s.commands_retired(), 0u);
  EXPECT_EQ(s.quarantined(), 3u);
  EXPECT_TRUE(round_trip(Bytes{}, random_bytes(4 * KiB, 38)));
}

TEST_F(DefaultStreamer, WriteEndingOnSplitBoundaryBeforeTlastSucceeds) {
  // The data ends exactly on the 1 MiB boundary, so its last sub-command is
  // already issued without TLAST when the empty TLAST beat arrives.
  core::NvmeStreamer& s = dev_.streamer();
  const Payload data = random_bytes(1536 * KiB, 39);
  ASSERT_TRUE(write_with_empty_tlast(Bytes{512 * KiB}, data));
  EXPECT_EQ(s.errors(), 0u);
  EXPECT_EQ(s.quarantined(), 0u);
  EXPECT_EQ(s.commands_submitted(), 2u);
  EXPECT_EQ(s.commands_retired(), s.commands_submitted());
  ReadResult got;
  auto io = [&]() -> sim::Task {
    got = co_await client_->read(Bytes{512 * KiB}, Bytes{data.size()});
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  EXPECT_TRUE(got.ok);
  ASSERT_TRUE(got.data.has_data());
  EXPECT_TRUE(got.data.content_equals(data));
}

/// The same device with the Sec. 7 out-of-order extension, whose issue
/// credits return at completion instead of retirement.
class OutOfOrderStreamer : public DefaultStreamer {
 protected:
  OutOfOrderStreamer()
      : DefaultStreamer(core::StreamerConfig{.out_of_order = true}) {}
};

TEST_F(OutOfOrderStreamer, LocallyAnsweredCommandsReturnTheirCredits) {
  // TearDown's check_invariants() finds a credit leaked by any of these.
  bool done = false;
  bool ok = true;
  ReadResult got;
  auto io = [&]() -> sim::Task {
    ok = co_await client_->write(Bytes{100}, random_bytes(8 * KiB, 40));
    got = co_await client_->read(Bytes{}, Bytes{});
    done = true;
  };
  sys_.sim().spawn(io());
  run_for(seconds(1));
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(got.ok);
  EXPECT_TRUE(write_with_empty_tlast(Bytes{}, random_bytes(1 * MiB, 41)));
  EXPECT_EQ(dev_.streamer().quarantined(), 2u);
  EXPECT_TRUE(round_trip(Bytes{2 * MiB}, random_bytes(16 * KiB, 42)));
}

}  // namespace
}  // namespace snacc
