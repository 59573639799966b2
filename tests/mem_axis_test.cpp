// Memory-model and AXI-Stream unit tests: sparse store semantics (phantom
// interplay), URAM/DRAM timing (dual-port vs shared-bus turnaround),
// stream serialization and chunked transfer framing, round-robin
// packet-level arbitration.
#include <gtest/gtest.h>

#include "axis/stream.hpp"
#include "common/calibration.hpp"
#include "mem/dram.hpp"
#include "mem/sparse_memory.hpp"

namespace snacc {
namespace {

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

TEST(Axis, RoundRobinArbiterKeepsPacketsIntact) {
  sim::Simulator sim;
  axis::Stream in_a(sim, {});
  axis::Stream in_b(sim, {});
  axis::Stream out(sim, {});
  axis::RoundRobinArbiter arb(sim, {&in_a, &in_b}, out);
  arb.start();

  auto produce = [&](axis::Stream* s, std::uint8_t tag) -> sim::Task {
    for (int pkt = 0; pkt < 3; ++pkt) {
      co_await s->send(axis::Chunk(Payload::filled(128, tag), false, tag));
      co_await s->send(axis::Chunk(Payload::filled(128, tag), true, tag));
    }
    s->close();
  };
  std::vector<std::uint64_t> sequence;
  auto consume = [&]() -> sim::Task {
    while (auto c = co_await out.recv()) sequence.push_back(c->user);
  };
  sim.spawn(produce(&in_a, 1));
  sim.spawn(produce(&in_b, 2));
  sim.spawn(consume());
  sim.run();
  ASSERT_EQ(sequence.size(), 12u);
  // Packet-level arbitration: chunks of one packet are never interleaved
  // with the other input's (pairs share the same tag).
  for (std::size_t i = 0; i < sequence.size(); i += 2) {
    EXPECT_EQ(sequence[i], sequence[i + 1]) << "packet split at " << i;
  }
}

}  // namespace
}  // namespace snacc
