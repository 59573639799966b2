// Memory-model and AXI-Stream unit tests: payload views and sharing, sparse
// store semantics (phantom interplay, page sharing, copy-on-write), an
// end-to-end check that no read-back payload changes under a later write,
// URAM/DRAM timing (dual-port vs shared-bus turnaround), stream
// serialization and chunked transfer framing.
#include <gtest/gtest.h>

#include <algorithm>

#include "axis/stream.hpp"
#include "common/calibration.hpp"
#include "common/rng.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "mem/dram.hpp"
#include "mem/sparse_memory.hpp"
#include "snacc/pe_client.hpp"
#include "spdk/driver.hpp"

namespace snacc {
namespace {

/// `size` pseudo-random real bytes; the same seed always gives the same
/// bytes, so a test can compare a payload against a fresh regeneration
/// instead of an object that might share its buffer.
Payload seeded(std::uint64_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> v(size);
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xFF);
  return Payload::bytes(std::move(v));
}

// ---------------------------------------------------------------------------
// Payload views

TEST(Payload, SliceIsAViewOfTheSameBuffer) {
  const Payload p = seeded(8192, 1);
  const Payload s = p.slice(100, 1000);
  EXPECT_EQ(p.use_count(), 2);
  EXPECT_EQ(s.view().data(), p.view().data() + 100);
  EXPECT_TRUE(s.content_equals(seeded(8192, 1).slice(100, 1000)));
}

TEST(Payload, AdjacentConcatAndGatherShareTheBuffer) {
  const Payload p = seeded(12288, 2);
  const Payload a = p.slice(0, 4096);
  const Payload b = p.slice(4096, 4096);
  const Payload c = p.slice(8192, 4096);
  const Payload ab = Payload::concat(a, b);
  EXPECT_EQ(ab.view().data(), p.view().data());
  EXPECT_EQ(ab.size(), 8192u);
  // p, a, b, c, ab.
  EXPECT_EQ(p.use_count(), 5);
  // Empty parts, real or phantom, do not break adjacency.
  const Payload all =
      Payload::gather({a, Payload{}, b, p.slice(8192, 0), c});
  EXPECT_EQ(all.view().data(), p.view().data());
  EXPECT_EQ(all.size(), p.size());
  EXPECT_EQ(p.use_count(), 6);
  EXPECT_TRUE(all.content_equals(seeded(12288, 2)));
}

TEST(Payload, NonAdjacentPartsAreCopied) {
  const Payload p = seeded(8192, 3);
  const Payload q = seeded(4096, 4);
  // Out of order within one buffer, a gap, and two buffers: each result is
  // one new buffer that nothing else shares.
  const Payload swapped = Payload::concat(p.slice(4096, 4096), p.slice(0, 4096));
  const Payload gapped = Payload::gather({p.slice(0, 100), p.slice(200, 100)});
  const Payload mixed = Payload::gather({p.slice(0, 4096), q});
  for (const Payload* r : {&swapped, &gapped, &mixed}) {
    EXPECT_EQ(r->use_count(), 1);
    EXPECT_NE(r->view().data(), p.view().data());
  }
  EXPECT_EQ(p.use_count(), 1);
  EXPECT_EQ(q.use_count(), 1);
  // Expected bytes, spelled out from fresh regenerations.
  const Payload p_again = seeded(8192, 3);
  const Payload q_again = seeded(4096, 4);
  const auto pv = p_again.view();
  const auto qv = q_again.view();
  std::vector<std::byte> want(pv.begin() + 4096, pv.end());
  want.insert(want.end(), pv.begin(), pv.begin() + 4096);
  EXPECT_TRUE(std::ranges::equal(swapped.view(), want));
  want.assign(pv.begin(), pv.begin() + 100);
  want.insert(want.end(), pv.begin() + 200, pv.begin() + 300);
  EXPECT_TRUE(std::ranges::equal(gapped.view(), want));
  want.assign(pv.begin(), pv.begin() + 4096);
  want.insert(want.end(), qv.begin(), qv.end());
  EXPECT_TRUE(std::ranges::equal(mixed.view(), want));
}

TEST(Payload, PhantomPartMakesResultPhantom) {
  const Payload p = seeded(8192, 5);
  const Payload c = Payload::concat(p.slice(0, 4096), Payload::phantom(10));
  EXPECT_FALSE(c.has_data());
  EXPECT_EQ(c.size(), 4106u);
  // Even a part adjacent on both sides: the gap's bytes are unknown.
  const Payload g = Payload::gather(
      {p.slice(0, 4096), Payload::phantom(16), p.slice(4096, 4096)});
  EXPECT_FALSE(g.has_data());
  EXPECT_EQ(g.size(), 8208u);
  // concat treats an empty phantom as phantom; gather skips it.
  EXPECT_FALSE(Payload::concat(Payload{}, p).has_data());
  EXPECT_TRUE(Payload::gather({Payload{}, p}).has_data());
}

TEST(Payload, EmptyRealPayloadStillHasData) {
  EXPECT_TRUE(Payload::bytes({}).has_data());
  EXPECT_TRUE(Payload::filled(0, 0x11).has_data());
  EXPECT_TRUE(Payload::gather({}).has_data());
  const Payload p = seeded(64, 6);
  EXPECT_TRUE(p.slice(64, 0).has_data());
  EXPECT_TRUE(Payload::concat(Payload::bytes({}), Payload::bytes({})).has_data());
  EXPECT_FALSE(Payload{}.has_data());
  EXPECT_TRUE(Payload::bytes({}).content_equals(p.slice(10, 0)));
}

TEST(Payload, ContentEqualsComparesBytes) {
  const Payload p = seeded(4096, 7);
  EXPECT_TRUE(p.content_equals(seeded(4096, 7)));
  EXPECT_FALSE(p.content_equals(seeded(4096, 8)));
  EXPECT_FALSE(p.content_equals(p.slice(0, 4095)));
  const auto v = p.view();
  std::vector<std::byte> last_differs(v.begin(), v.end());
  last_differs.back() ^= std::byte{1};
  EXPECT_FALSE(p.content_equals(Payload::bytes(std::move(last_differs))));
  EXPECT_TRUE(p.content_equals(Payload::phantom(4096)));  // phantom matches
}

// A moved-from payload is empty, so a read after a move sees 0 bytes
// instead of a phantom of the old size that content_equals would match
// against anything.
TEST(Payload, MovedFromIsEmpty) {
  Payload p = seeded(4096, 9);
  const Payload moved(std::move(p));
  EXPECT_EQ(p.size(), 0u);
  EXPECT_FALSE(p.has_data());
  EXPECT_TRUE(moved.content_equals(seeded(4096, 9)));

  Payload q = seeded(512, 10);
  Payload assigned;
  assigned = std::move(q);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.has_data());
  EXPECT_EQ(assigned.size(), 512u);

  axis::Chunk c(seeded(256, 11), true, 7);
  const axis::Chunk taken(std::move(c));
  EXPECT_EQ(c.data.size(), 0u);
  EXPECT_FALSE(c.data.has_data());
  EXPECT_TRUE(taken.data.content_equals(seeded(256, 11)));
}

// ---------------------------------------------------------------------------
// SparseMemory

TEST(SparseMemory, RealWriteReadRoundTrip) {
  mem::SparseMemory m(1 * MiB);
  Payload data = Payload::filled(10000, 0x42);
  m.write(4096 + 123, data);
  Payload got = m.read(4096 + 123, 10000);
  ASSERT_TRUE(got.has_data());
  EXPECT_TRUE(got.content_equals(data));
  EXPECT_EQ(m.resident_pages(), 3u);  // bytes 4219..14218 span pages 1-3
}

TEST(SparseMemory, UnwrittenRangeReadsPhantom) {
  mem::SparseMemory m(1 * MiB);
  Payload got = m.read(0, 4096);
  EXPECT_FALSE(got.has_data());
  EXPECT_EQ(got.size(), 4096u);
}

TEST(SparseMemory, PhantomWriteInvalidatesRealData) {
  mem::SparseMemory m(1 * MiB);
  m.fill(0, 8192, 0x11);
  EXPECT_TRUE(m.read(0, 8192).has_data());
  m.write(0, Payload::phantom(4096));
  // First page degraded; a read covering it is phantom, the second page
  // alone still reads real.
  EXPECT_FALSE(m.read(0, 8192).has_data());
  EXPECT_TRUE(m.read(4096, 4096).has_data());
}

TEST(SparseMemory, PartialPageOverwrite) {
  mem::SparseMemory m(1 * MiB);
  m.fill(0, 4096, 0xAA);
  m.write(100, Payload::filled(50, 0xBB));
  Payload got = m.read(0, 4096);
  ASSERT_TRUE(got.has_data());
  auto v = got.view();
  EXPECT_EQ(static_cast<std::uint8_t>(v[99]), 0xAA);
  EXPECT_EQ(static_cast<std::uint8_t>(v[100]), 0xBB);
  EXPECT_EQ(static_cast<std::uint8_t>(v[149]), 0xBB);
  EXPECT_EQ(static_cast<std::uint8_t>(v[150]), 0xAA);
}

TEST(SparseMemory, WholePageWriteSharesTheWritersBuffer) {
  mem::SparseMemory m(1 * MiB);
  const Payload data = seeded(8192, 10);
  m.write(4096, data);
  EXPECT_EQ(data.use_count(), 3);  // the writer and two pages
  const Payload got = m.read(4096, 4096);
  EXPECT_EQ(got.view().data(), data.view().data());
  // Overwriting both pages releases the writer's buffer.
  m.write(4096, Payload::filled(8192, 0x77));
  EXPECT_EQ(data.use_count(), 2);  // the writer and `got`
}

TEST(SparseMemory, PartialWriteLeavesEarlierPayloadsUnchanged) {
  mem::SparseMemory m(1 * MiB);
  const Payload data = seeded(4096, 11);
  m.write(0, data);
  const Payload before = m.read(0, 4096);
  m.write(100, Payload::filled(50, 0xBB));
  const Payload original = seeded(4096, 11);
  EXPECT_TRUE(before.content_equals(original));
  EXPECT_TRUE(data.content_equals(original));
  const Payload after = m.read(0, 4096);
  EXPECT_NE(after.view().data(), data.view().data());
  EXPECT_TRUE(after.slice(0, 100).content_equals(original.slice(0, 100)));
  EXPECT_TRUE(after.slice(100, 50).content_equals(Payload::filled(50, 0xBB)));
  EXPECT_TRUE(after.slice(150, 3946).content_equals(original.slice(150, 3946)));
}

TEST(SparseMemory, PageOwnedAloneIsUpdatedInPlace) {
  mem::SparseMemory m(1 * MiB);
  m.write(100, Payload::filled(50, 0xBB));  // the memory allocates page 0
  const std::byte* page = m.read(0, 4096).view().data();
  m.write(200, Payload::filled(10, 0xCC));  // no read is alive: in place
  EXPECT_EQ(m.read(0, 4096).view().data(), page);
  // A live read forces a copy, and keeps seeing the old bytes.
  const Payload held = m.read(0, 4096);
  m.write(300, Payload::filled(10, 0xDD));
  const Payload now = m.read(0, 4096);
  EXPECT_NE(now.view().data(), held.view().data());
  EXPECT_EQ(static_cast<std::uint8_t>(held.view()[300]), 0x00);
  EXPECT_EQ(static_cast<std::uint8_t>(now.view()[300]), 0xDD);
  EXPECT_EQ(static_cast<std::uint8_t>(now.view()[200]), 0xCC);
}

TEST(SparseMemory, MultiPageReadOfOneBufferIsOneView) {
  mem::SparseMemory m(1 * MiB);
  const Payload data = seeded(16384, 12);
  m.write(0, data);
  const Payload got = m.read(100, 12000);
  EXPECT_EQ(got.view().data(), data.view().data() + 100);
  EXPECT_EQ(data.use_count(), 6);  // the writer, four pages, `got`
  // Pages from two writers are copied into one new buffer.
  m.write(16384, seeded(4096, 13));
  const Payload across = m.read(12288, 8192);
  EXPECT_EQ(across.use_count(), 1);
  EXPECT_TRUE(across.content_equals(
      Payload::concat(seeded(16384, 12).slice(12288, 4096), seeded(4096, 13))));
}

TEST(SparseMemory, PhantomWriteStillDropsPages) {
  mem::SparseMemory m(1 * MiB);
  const Payload data = seeded(8192, 14);
  m.write(0, data);
  m.write(100, Payload::phantom(10));
  EXPECT_EQ(m.resident_pages(), 1u);
  EXPECT_EQ(data.use_count(), 2);  // page 0's view is gone
  EXPECT_FALSE(m.read(0, 4096).has_data());
  EXPECT_TRUE(m.read(4096, 4096).content_equals(seeded(8192, 14).slice(4096, 4096)));
}

// ---------------------------------------------------------------------------
// No aliasing end to end: a payload read back from the device keeps its
// bytes after the same blocks are overwritten. Both reads are checked
// against bytes regenerated from their seeds, never against the written
// payload objects, so a buffer shared and changed in place fails here.

constexpr std::uint64_t kAliasBytes = 64 * KiB;

class NoAliasing : public ::testing::TestWithParam<core::Variant> {};

TEST_P(NoAliasing, EarlierReadSurvivesOverwrite) {
  host::System sys;
  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = GetParam();
  host::SnaccDevice dev(sys, cfg);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(sys.sim().now() + seconds(1));
  ASSERT_TRUE(booted);
  core::PeClient client(dev.streamer());
  // A small (one-page, latency-bound drain) and a bulk command.
  for (const std::uint64_t len : {std::uint64_t{4096}, kAliasBytes}) {
    const Bytes at{2 * MiB};
    bool done = false;
    Payload first;
    Payload second;
    auto io = [&]() -> sim::Task {
      co_await client.write(at, seeded(len, 21));
      first = (co_await client.read(at, Bytes{len})).data;
      co_await client.write(at, seeded(len, 22));
      second = (co_await client.read(at, Bytes{len})).data;
      done = true;
    };
    sys.sim().spawn(io());
    sys.sim().run_until(sys.sim().now() + seconds(1));
    ASSERT_TRUE(done) << len;
    ASSERT_TRUE(first.has_data() && second.has_data()) << len;
    EXPECT_TRUE(first.content_equals(seeded(len, 21))) << len;
    EXPECT_TRUE(second.content_equals(seeded(len, 22))) << len;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, NoAliasing,
                         ::testing::Values(core::Variant::kUram,
                                           core::Variant::kOnboardDram,
                                           core::Variant::kHostDram),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::Variant::kUram:
                               return "Uram";
                             case core::Variant::kOnboardDram:
                               return "OnboardDram";
                             case core::Variant::kHostDram:
                               return "HostDram";
                             case core::Variant::kHbm:
                               return "Hbm";
                           }
                           return "Unknown";
                         });

TEST(NoAliasingSpdk, EarlierReadSurvivesOverwrite) {
  host::System sys;
  spdk::Driver driver(sys.sim(), sys.fabric(), sys.host_mem(),
                      host::addr_map::kHostDramBase, sys.ssd(),
                      sys.config().profile.host);
  bool booted = false;
  auto boot = [&]() -> sim::Task {
    co_await driver.init();
    booted = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(sys.sim().now() + seconds(1));
  ASSERT_TRUE(booted);
  // One page, and a transfer larger than the device MDTS (two commands).
  for (const std::uint64_t len : {std::uint64_t{4096}, std::uint64_t{1 * MiB + 8 * KiB}}) {
    bool done = false;
    spdk::ReadCompletion first;
    spdk::ReadCompletion second;
    nvme::Status wrote_first{};
    nvme::Status wrote_second{};
    auto io = [&]() -> sim::Task {
      wrote_first = co_await driver.write(Lba{800}, seeded(len, 31));
      first = co_await driver.read(Lba{800}, Bytes{len});
      wrote_second = co_await driver.write(Lba{800}, seeded(len, 32));
      second = co_await driver.read(Lba{800}, Bytes{len});
      done = true;
    };
    sys.sim().spawn(io());
    sys.sim().run_until(sys.sim().now() + seconds(1));
    ASSERT_TRUE(done) << len;
    EXPECT_EQ(wrote_first, nvme::Status::kSuccess);
    EXPECT_EQ(wrote_second, nvme::Status::kSuccess);
    EXPECT_EQ(first.status, nvme::Status::kSuccess);
    EXPECT_EQ(second.status, nvme::Status::kSuccess);
    ASSERT_TRUE(first.data.has_data() && second.data.has_data()) << len;
    EXPECT_TRUE(first.data.content_equals(seeded(len, 31))) << len;
    EXPECT_TRUE(second.data.content_equals(seeded(len, 32))) << len;
  }
}

// ---------------------------------------------------------------------------
// URAM / DRAM timing

TEST(Uram, DualPortsDoNotContend) {
  sim::Simulator sim;
  FpgaProfile fpga;
  mem::Uram uram(sim, 4 * MiB, fpga);
  TimePs read_done;
  TimePs write_done;
  auto reader = [&]() -> sim::Task {
    (void)co_await uram.read(0, 1 * MiB);
    read_done = sim.now();
  };
  auto writer = [&]() -> sim::Task {
    co_await uram.write(2 * MiB, Payload::phantom(1 * MiB));
    write_done = sim.now();
  };
  sim.spawn(reader());
  sim.spawn(writer());
  sim.run();
  // Both finish in ~1MiB/19.2GB/s; a shared port would double one of them.
  const TimePs expect = transfer_time(1 * MiB, 19.2) + fpga.uram_latency;
  EXPECT_NEAR(read_done.value(), expect.value(),
              us(1).value());
  EXPECT_NEAR(write_done.value(), expect.value(),
              us(1).value());
}

TEST(Dram, TurnaroundChargedOnDirectionSwitch) {
  sim::Simulator sim;
  FpgaProfile fpga;
  mem::Dram dram(sim, 16 * MiB, fpga);
  auto t = [&]() -> sim::Task {
    co_await dram.write(0, Payload::phantom(4096));
    (void)co_await dram.read(0, 4096);                    // W -> R switch
    (void)co_await dram.read(4096, 4096);                 // no switch
    co_await dram.write(8192, Payload::phantom(4096));    // R -> W switch
  };
  sim.spawn(t());
  sim.run();
  EXPECT_EQ(dram.turnarounds(), 2u);
}

TEST(Dram, SharedBusSerializesReadAndWriteStreams) {
  sim::Simulator sim;
  FpgaProfile fpga;
  mem::Dram dram(sim, 64 * MiB, fpga);
  const std::uint64_t total = 16 * MiB;
  TimePs t_end;
  int remaining = 2;
  auto stream = [&](bool write, std::uint64_t base) -> sim::Task {
    for (std::uint64_t off = 0; off < total; off += 64 * KiB) {
      if (write) {
        co_await dram.write(base + off, Payload::phantom(64 * KiB));
      } else {
        (void)co_await dram.read(base + off, 64 * KiB);
      }
    }
    if (--remaining == 0) t_end = sim.now();
  };
  sim.spawn(stream(true, 0));
  sim.spawn(stream(false, 32 * MiB));
  sim.run();
  // 32 MiB over a 19.2 GB/s shared bus plus turnaround stalls: strictly
  // slower than the pure transfer time.
  EXPECT_GT(t_end, transfer_time(2 * total, fpga.dram_gb_s));
}

// ---------------------------------------------------------------------------
// AXI-Stream

TEST(Axis, SendChargesBeatSerialization) {
  sim::Simulator sim;
  axis::Stream s(sim, {});
  TimePs done;
  auto t = [&]() -> sim::Task {
    co_await s.send(axis::Chunk(Payload::phantom(64 * KiB), true));
    done = sim.now();
  };
  sim.spawn(t());
  sim.run();
  // 64 KiB at 64 B/beat, 300 MHz -> 1024 beats * 3.334 ns.
  const TimePs expect = 1024 * ps(3334);
  EXPECT_NEAR(done.value(), expect.value(),
              ns(100).value());
}

TEST(Axis, SendChunkedMarksOnlyFinalChunkLast) {
  sim::Simulator sim;
  axis::Stream s(sim, {});
  std::vector<bool> lasts;
  std::vector<std::uint64_t> sizes;
  auto producer = [&]() -> sim::Task {
    co_await axis::send_chunked(s, Payload::phantom(40 * KiB), Bytes{16 * KiB}, true);
    s.close();
  };
  auto consumer = [&]() -> sim::Task {
    while (auto c = co_await s.recv()) {
      lasts.push_back(c->last);
      sizes.push_back(c->data.size());
    }
  };
  sim.spawn(producer());
  sim.spawn(consumer());
  sim.run();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 16 * KiB);
  EXPECT_EQ(sizes[1], 16 * KiB);
  EXPECT_EQ(sizes[2], 8 * KiB);
  EXPECT_EQ(lasts, (std::vector<bool>{false, false, true}));
}

}  // namespace
}  // namespace snacc
